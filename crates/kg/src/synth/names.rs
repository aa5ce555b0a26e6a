//! Deterministic name generation for the synthetic world.
//!
//! Labels must look like natural-language proper nouns (multi-token, mixed
//! case) so that the NER gazetteer, label containment matching (`Sanders` →
//! `Bernie Sanders`) and the tokenizer are all exercised realistically.

use newslink_util::DetRng;


/// Pick a static string from a pool (avoids double-reference friction with
/// `DetRng::pick` on `&[&str]`).
fn choose<'a>(rng: &mut DetRng, items: &'a [&'a str]) -> &'a str {
    items[rng.below(items.len())]
}

const ONSETS: &[&str] = &[
    "b", "br", "ch", "d", "dr", "f", "g", "gh", "h", "j", "k", "kh", "kr", "l", "m", "n", "p",
    "q", "r", "s", "sh", "st", "t", "tr", "v", "w", "y", "z",
];
const VOWELS: &[&str] = &["a", "e", "i", "o", "u", "ai", "ei", "ou", "ia"];
const CODAS: &[&str] = &["", "n", "r", "l", "s", "t", "k", "m", "nd", "st", "sh"];

/// Generate a single capitalized pseudo-word of `syllables` syllables.
pub(crate) fn word(rng: &mut DetRng, syllables: usize) -> String {
    let mut s = String::new();
    for i in 0..syllables {
        if i > 0 || rng.chance(0.85) {
            s.push_str(choose(rng, ONSETS));
        }
        s.push_str(choose(rng, VOWELS));
        if i + 1 == syllables || rng.chance(0.35) {
            s.push_str(choose(rng, CODAS));
        }
    }
    capitalize(&s)
}

/// Capitalize the first letter of an ASCII-ish string.
pub(crate) fn capitalize(s: &str) -> String {
    let mut chars = s.chars();
    match chars.next() {
        Some(first) => first.to_uppercase().chain(chars).collect(),
        None => String::new(),
    }
}

/// A place name: one or occasionally two words ("Khyber", "Swat Valley").
pub(crate) fn place(rng: &mut DetRng) -> String {
    let syl = rng.range(2, 4);
    let head = word(rng, syl);
    if rng.chance(0.15) {
        let suffix = choose(rng, &["Valley", "Hills", "Coast", "Heights", "Plains"]);
        format!("{head} {suffix}")
    } else {
        head
    }
}

/// A person name: given + family name.
pub fn person(rng: &mut DetRng) -> String {
    let s1 = rng.range(2, 3);
    let given = word(rng, s1);
    let s2 = rng.range(2, 4);
    let family = word(rng, s2);
    format!("{given} {family}")
}

/// A political party name anchored at a place.
pub(crate) fn party(rng: &mut DetRng, place: &str) -> String {
    let flavor = choose(rng, &[
        "National", "People's", "Democratic", "United", "Progressive", "Liberty",
    ]);
    let kind = choose(rng, &["Party", "Movement", "Alliance", "Front"]);
    format!("{place} {flavor} {kind}")
}

/// A company name.
pub(crate) fn company(rng: &mut DetRng) -> String {
    let syl = rng.range(2, 4);
    let stem = word(rng, syl);
    let kind = choose(rng, &["Corporation", "Industries", "Group", "Holdings", "Systems"]);
    format!("{stem} {kind}")
}

/// A militant / activist group name.
pub(crate) fn militant_group(rng: &mut DetRng, place: &str) -> String {
    match rng.below(3) {
        0 => format!("{place} Liberation Front"),
        1 => format!("Army of {place}"),
        _ => {
            let syl = rng.range(2, 4);
            word(rng, syl)
        }
    }
}

/// A sports team name anchored at a city.
pub(crate) fn team(rng: &mut DetRng, city: &str) -> String {
    let mascot = choose(rng, &["Lions", "Eagles", "Wolves", "Falcons", "Titans", "Rovers"]);
    format!("{city} {mascot}")
}

/// A news agency / institution name.
pub(crate) fn agency(rng: &mut DetRng, place: &str) -> String {
    let kind = choose(rng, &["Ministry", "Bureau", "Institute", "Commission", "Authority"]);
    let domain = choose(rng, &["Defense", "Interior", "Trade", "Health", "Energy", "Justice"]);
    format!("{place} {kind} of {domain}")
}

/// A language name derived from a country name.
pub(crate) fn language(rng: &mut DetRng, country: &str) -> String {
    let base: String = country
        .chars()
        .take_while(|c| c.is_alphabetic())
        .collect();
    let suffix = choose(rng, &["i", "ese", "ian", "ish"]);
    format!("{base}{suffix}")
}

/// A work-of-art title.
pub(crate) fn work(rng: &mut DetRng, place: &str) -> String {
    match rng.below(3) {
        0 => format!("The {} of {place}", choose(rng, &["Song", "Fall", "Voice", "Shadow", "Road"])),
        1 => format!("{} Nights", place),
        _ => {
            let syl = rng.range(3, 5);
            word(rng, syl)
        }
    }
}

/// An election name.
pub(crate) fn election(year: u32, country: &str) -> String {
    format!("{year} {country} presidential election")
}

/// An armed-conflict name.
pub(crate) fn conflict(rng: &mut DetRng, place: &str) -> String {
    match rng.below(3) {
        0 => format!("Battle of {place}"),
        1 => format!("{place} insurgency"),
        _ => format!("Siege of {place}"),
    }
}

/// An attack / bombing event name.
pub(crate) fn attack(rng: &mut DetRng, year: u32, place: &str) -> String {
    match rng.below(2) {
        0 => format!("{year} {place} bombing"),
        _ => format!("{year} {place} attack"),
    }
}

/// A summit / conference event name.
pub(crate) fn summit(year: u32, place: &str) -> String {
    format!("{year} {place} summit")
}

/// A sports championship name.
pub(crate) fn championship(year: u32, place: &str) -> String {
    format!("{year} {place} championship")
}

/// A law name.
pub(crate) fn law(rng: &mut DetRng, country: &str) -> String {
    let domain = choose(rng, &["Security", "Trade", "Reform", "Energy", "Press Freedom"]);
    format!("{country} {domain} Act")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_deterministic() {
        let mut a = DetRng::new(1);
        let mut b = DetRng::new(1);
        for _ in 0..20 {
            assert_eq!(person(&mut a), person(&mut b));
        }
    }

    #[test]
    fn words_are_capitalized_and_nonempty() {
        let mut rng = DetRng::new(2);
        for _ in 0..100 {
            let w = word(&mut rng, 2);
            assert!(!w.is_empty());
            assert!(w.chars().next().unwrap().is_uppercase());
        }
    }

    #[test]
    fn person_names_have_two_tokens() {
        let mut rng = DetRng::new(3);
        for _ in 0..50 {
            assert_eq!(person(&mut rng).split(' ').count(), 2);
        }
    }

    #[test]
    fn structured_names_embed_anchor() {
        let mut rng = DetRng::new(4);
        assert!(party(&mut rng, "Khyber").starts_with("Khyber"));
        assert!(team(&mut rng, "Lahore").starts_with("Lahore"));
        assert_eq!(election(2016, "Pakistan"), "2016 Pakistan presidential election");
        assert!(attack(&mut rng, 2015, "Peshawar").contains("Peshawar"));
        assert!(law(&mut rng, "Pakistan").starts_with("Pakistan"));
    }

    #[test]
    fn capitalize_handles_empty() {
        assert_eq!(capitalize(""), "");
        assert_eq!(capitalize("x"), "X");
    }

    #[test]
    fn names_vary() {
        let mut rng = DetRng::new(5);
        let names: std::collections::HashSet<String> = (0..50).map(|_| place(&mut rng)).collect();
        assert!(names.len() > 40, "only {} distinct place names", names.len());
    }
}
