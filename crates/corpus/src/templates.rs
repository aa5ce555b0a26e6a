//! Sentence templates for synthetic news.
//!
//! Each event kind has a pool of sentence builders over a [`Cast`] of
//! entity surface forms. Different documents about the *same* event draw
//! different templates and different verb/noun synonyms, recreating the
//! vocabulary-mismatch problem (§I) that NewsLink's induced entities are
//! designed to bridge.

use newslink_kg::EventKind;
use newslink_util::DetRng;

/// The entity surface forms available to templates for one document.
#[derive(Debug, Clone)]
pub(crate) struct Cast {
    /// The event's label (e.g. `2015 Peshawar bombing`).
    pub(crate) event: String,
    /// Primary place (city or province).
    pub(crate) place: String,
    /// The country.
    pub(crate) country: String,
    /// A militant group / organization participant.
    pub(crate) group: String,
    /// A person participant (candidate, leader…).
    pub(crate) person: String,
    /// A second person participant.
    pub(crate) person2: String,
    /// A related organization (agency, team, party).
    pub(crate) org: String,
    /// A secondary place (neighbouring province/city).
    pub(crate) place2: String,
}

fn pick<'a>(rng: &mut DetRng, items: &'a [&'a str]) -> &'a str {
    items[rng.below(items.len())]
}

const SAY: &[&str] = &["said", "reported", "announced", "stated", "confirmed", "declared"];
const OFFICIALS: &[&str] = &["officials", "authorities", "sources", "observers", "witnesses"];
const FORCES: &[&str] = &["forces", "troops", "security units", "soldiers"];
const STRIKE: &[&str] = &["struck", "hit", "rocked", "shook", "devastated"];
const CONDEMN: &[&str] = &["condemned", "denounced", "criticized", "deplored"];
const VOTERS: &[&str] = &["voters", "citizens", "residents", "supporters"];
const WIN: &[&str] = &["leads", "dominates", "surges ahead in", "gains ground in"];
const CLASH: &[&str] = &["clashed with", "battled", "fought", "exchanged fire with"];

/// A sentence template: draws synonyms from `rng`, fills slots from `Cast`.
type Template = Box<dyn Fn(&mut DetRng, &Cast) -> String>;

/// Produce `n` sentences about an event of `kind` using `cast`.
pub(crate) fn sentences(rng: &mut DetRng, kind: EventKind, cast: &Cast, n: usize) -> Vec<String> {
    let pool: Vec<Template> = match kind {
        EventKind::Attack => vec![
            Box::new(|r, c| {
                format!(
                    "A deadly explosion {} {} as {} in {} {} heavy casualties.",
                    pick(r, STRIKE), c.place, pick(r, OFFICIALS), c.country, pick(r, SAY)
                )
            }),
            Box::new(|r, c| {
                format!(
                    "{} claimed responsibility for the {}, {} in {} {}.",
                    c.group, c.event, pick(r, OFFICIALS), c.country, pick(r, SAY)
                )
            }),
            Box::new(|r, c| {
                format!(
                    "Residents of {} mourned while {} {} sealed roads to {}.",
                    c.place, c.country, pick(r, FORCES), c.place2
                )
            }),
            Box::new(|r, c| {
                format!(
                    "The government of {} {} the {} and promised a response against {}.",
                    c.country, pick(r, CONDEMN), c.event, c.group
                )
            }),
            Box::new(|r, c| {
                format!(
                    "Hospitals in {} and {} treated the wounded, {} {}.",
                    c.place, c.place2, pick(r, OFFICIALS), pick(r, SAY)
                )
            }),
            Box::new(|_r, c| {
                format!(
                    "{} dispatched teams from {} to {} after the {}.",
                    c.org, c.place2, c.place, c.event
                )
            }),
        ],
        EventKind::Conflict => vec![
            Box::new(|r, c| {
                format!(
                    "{} {} {} {} near {}.",
                    c.group, pick(r, CLASH), c.country, pick(r, FORCES), c.place
                )
            }),
            Box::new(|r, c| {
                format!(
                    "The {} spread toward {} as {} {}.",
                    c.event, c.place2, pick(r, OFFICIALS), pick(r, SAY)
                )
            }),
            Box::new(|r, c| {
                format!(
                    "Military commanders in {} {} new operations against {} in {}.",
                    c.country, pick(r, SAY), c.group, c.place
                )
            }),
            Box::new(|_r, c| {
                format!(
                    "Thousands fled {} for {} to escape the {}.",
                    c.place, c.place2, c.event
                )
            }),
            Box::new(|r, c| {
                format!(
                    "{} {} the violence attributed to {}.",
                    c.org, pick(r, CONDEMN), c.group
                )
            }),
            Box::new(|_r, c| {
                format!(
                    "Monitors from {} in {} warned {} about {}.",
                    c.org, c.place2, c.country, c.group
                )
            }),
        ],
        EventKind::Election => vec![
            Box::new(|r, c| {
                format!(
                    "{} {} the polls ahead of the {}, surveys in {} {}.",
                    c.person, pick(r, WIN), c.event, c.country, pick(r, SAY)
                )
            }),
            Box::new(|_r, c| {
                format!(
                    "{} debated {} in {} before the {}.",
                    c.person, c.person2, c.place, c.event
                )
            }),
            Box::new(|r, c| {
                format!(
                    "{} in {} prepared for the {}, {} {}.",
                    capitalize(pick(r, VOTERS)), c.country, c.event, pick(r, OFFICIALS), pick(r, SAY)
                )
            }),
            Box::new(|_r, c| {
                format!(
                    "{} campaigned across {} with rallies in {} and {}.",
                    c.person2, c.country, c.place, c.place2
                )
            }),
            Box::new(|_r, c| {
                format!(
                    "{} endorsed {} for the {}.",
                    c.org, c.person, c.event
                )
            }),
            Box::new(|r, c| {
                format!(
                    "{} polled {} in {} ahead of the {}.",
                    c.org, pick(r, VOTERS), c.place2, c.event
                )
            }),
        ],
        EventKind::Summit => vec![
            Box::new(|r, c| {
                format!(
                    "Delegations arrived in {} for the {}, {} {}.",
                    c.place, c.event, pick(r, OFFICIALS), pick(r, SAY)
                )
            }),
            Box::new(|_, c| {
                format!(
                    "Leaders of {} met counterparts at the {} to discuss trade and security.",
                    c.country, c.event
                )
            }),
            Box::new(|r, c| {
                format!(
                    "Talks at the {} in {} continued late, {} {}.",
                    c.event, c.place, pick(r, OFFICIALS), pick(r, SAY)
                )
            }),
            Box::new(|_, c| {
                format!(
                    "{} hosted a reception for delegates from {} during the {}.",
                    c.org, c.country, c.event
                )
            }),
            Box::new(|_, c| {
                format!(
                    "{} of {} addressed the {} in {}.",
                    c.person, c.org, c.event, c.place
                )
            }),
        ],
        EventKind::Championship => vec![
            Box::new(|r, c| {
                format!(
                    "{} defeated {} in the opening round of the {}, fans in {} {}.",
                    c.org, c.group, c.event, c.place, pick(r, SAY)
                )
            }),
            Box::new(|_, c| {
                format!(
                    "The {} drew crowds across {} with matches in {} and {}.",
                    c.event, c.country, c.place, c.place2
                )
            }),
            Box::new(|r, c| {
                format!(
                    "Star player {} of {} {} the tournament scoring charts.",
                    c.person, c.org, pick(r, WIN)
                )
            }),
            Box::new(|_, c| {
                format!(
                    "Supporters in {} celebrated as {} advanced in the {}.",
                    c.place, c.org, c.event
                )
            }),
            Box::new(|_, c| {
                format!(
                    "{} joined {} supporters in {} for the {}.",
                    c.person2, c.org, c.place2, c.event
                )
            }),
        ],
    };
    // Per-document shuffled template order: two documents about the same
    // event open differently, keeping them distinguishable for HIT@k.
    let mut order: Vec<usize> = (0..pool.len()).collect();
    rng.shuffle(&mut order);
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        let idx = order[i % order.len()];
        out.push(pool[idx](rng, cast));
    }
    out
}

/// Boilerplate wire-copy sentences shared across ALL event kinds: the
/// wording is identical between stories about different events; only the
/// entity slots differ. These are the "partial queries with missing
/// context" of §VII-B — keyword search cannot tell the stories apart, but
/// the entities can.
pub(crate) fn generic_sentences(rng: &mut DetRng, cast: &Cast) -> Vec<String> {
    let pool: Vec<String> = vec![
        format!("Officials in {} urged calm as the situation developed.", cast.place),
        format!("Residents across {} followed the developments closely.", cast.country),
        format!("Correspondents filed reports from {} overnight.", cast.place2),
        format!("The news dominated broadcasts across {} for days.", cast.country),
        format!("Analysts in {} cautioned against early conclusions.", cast.place),
    ];
    let mut out = Vec::new();
    if rng.chance(0.65) {
        out.push(pool[rng.below(pool.len())].clone());
    }
    if rng.chance(0.35) {
        out.push(pool[rng.below(pool.len())].clone());
    }
    out
}

fn capitalize(s: &str) -> String {
    let mut c = s.chars();
    match c.next() {
        Some(f) => f.to_uppercase().chain(c).collect(),
        None => String::new(),
    }
}

/// A headline for the document. Several variants per kind so same-event
/// documents stay distinguishable.
pub(crate) fn headline(rng: &mut DetRng, kind: EventKind, cast: &Cast) -> String {
    match kind {
        EventKind::Attack => match rng.below(3) {
            0 => format!(
                "{} {} {}: {} blamed",
                cast.event,
                pick(rng, &["shakes", "stuns", "hits"]),
                cast.country,
                cast.group
            ),
            1 => format!("Explosion in {}: {} under scrutiny", cast.place, cast.group),
            _ => format!("{} reels after {}", cast.country, cast.event),
        },
        EventKind::Conflict => match rng.below(3) {
            0 => format!(
                "{} escalates as {} {} {}",
                cast.event,
                cast.group,
                pick(rng, &["confronts", "battles"]),
                cast.country
            ),
            1 => format!("Fighting near {} deepens the {}", cast.place, cast.event),
            _ => format!("{} struggles to contain {}", cast.country, cast.group),
        },
        EventKind::Election => match rng.below(3) {
            0 => format!(
                "{} and {} face off in {}",
                cast.person, cast.person2, cast.event
            ),
            1 => format!("{} eyes victory in {}", cast.person, cast.event),
            _ => format!("{} braces for the {}", cast.country, cast.event),
        },
        EventKind::Summit => match rng.below(2) {
            0 => format!("{} opens in {}", cast.event, cast.place),
            _ => format!("{} hosts the {}", cast.place, cast.event),
        },
        EventKind::Championship => match rng.below(2) {
            0 => format!("{} kicks off in {}", cast.event, cast.country),
            _ => format!("{} chases glory at the {}", cast.org, cast.event),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cast() -> Cast {
        Cast {
            event: "2015 Peshawar bombing".into(),
            place: "Peshawar".into(),
            country: "Pakistan".into(),
            group: "Taliban".into(),
            person: "Asif Khan".into(),
            person2: "Bilal Shah".into(),
            org: "Pakistan Ministry of Defense".into(),
            place2: "Lahore".into(),
        }
    }

    #[test]
    fn sentences_mention_cast_entities() {
        let mut rng = DetRng::new(1);
        for kind in EventKind::ALL {
            let s = sentences(&mut rng, kind, &cast(), 5);
            assert_eq!(s.len(), 5);
            let joined = s.join(" ");
            assert!(
                joined.contains("Pakistan")
                    || joined.contains("Peshawar")
                    || joined.contains("2015 Peshawar bombing"),
                "{kind:?}: {joined}"
            );
        }
    }

    #[test]
    fn sentences_are_deterministic() {
        let mut a = DetRng::new(9);
        let mut b = DetRng::new(9);
        assert_eq!(
            sentences(&mut a, EventKind::Attack, &cast(), 8),
            sentences(&mut b, EventKind::Attack, &cast(), 8)
        );
    }

    #[test]
    fn vocabulary_varies_across_documents() {
        let mut a = DetRng::new(1);
        let mut b = DetRng::new(2);
        let sa = sentences(&mut a, EventKind::Attack, &cast(), 5).join(" ");
        let sb = sentences(&mut b, EventKind::Attack, &cast(), 5).join(" ");
        assert_ne!(sa, sb, "different seeds must vary the phrasing");
    }

    #[test]
    fn headlines_mention_cast_entities() {
        let c = cast();
        let anchors = [
            c.event.as_str(),
            c.place.as_str(),
            c.country.as_str(),
            c.group.as_str(),
            c.person.as_str(),
            c.org.as_str(),
        ];
        let mut rng = DetRng::new(3);
        for kind in EventKind::ALL {
            for _ in 0..10 {
                let h = headline(&mut rng, kind, &c);
                assert!(
                    anchors.iter().any(|a| h.contains(a)),
                    "{kind:?} headline lacks entities: {h}"
                );
            }
        }
    }

    #[test]
    fn headlines_vary_per_document() {
        let mut rng = DetRng::new(8);
        let c = cast();
        let set: std::collections::HashSet<String> =
            (0..20).map(|_| headline(&mut rng, EventKind::Election, &c)).collect();
        assert!(set.len() >= 2, "headline variants expected");
    }

    #[test]
    fn generic_sentences_anchor_entities() {
        let mut rng = DetRng::new(11);
        let mut seen_any = false;
        for _ in 0..20 {
            for s in generic_sentences(&mut rng, &cast()) {
                seen_any = true;
                assert!(
                    s.contains("Peshawar") || s.contains("Pakistan") || s.contains("Lahore"),
                    "{s}"
                );
            }
        }
        assert!(seen_any);
    }

    #[test]
    fn sentences_end_with_period() {
        let mut rng = DetRng::new(4);
        for s in sentences(&mut rng, EventKind::Summit, &cast(), 4) {
            assert!(s.ends_with('.'), "{s}");
        }
    }
}
