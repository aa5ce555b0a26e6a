//! A byte-addressable, deterministic finite-state automaton over sorted
//! keys — the storage primitive behind the label→entity resolution path.
//!
//! [`FstBuilder`] consumes `(key, u64 value)` pairs in strictly ascending
//! key order and streams a prefix-sharing trie into one flat byte buffer:
//! children are serialized before their parents, every child reference is
//! a backward delta from the referencing node's own address, and node
//! addresses are plain byte offsets. [`Fst`] walks that buffer in place,
//! with no decode step between build and lookup.
//!
//! Node layout (all integers little-endian / LEB128):
//!
//! ```text
//! header   u8    bit 7: node carries a value
//!                bits 5–6: transition-delta width minus one (1–4 bytes)
//!                bits 0–4: transition count, 31 = extended count follows
//! [count]  var   extended transition count (only when bits 0–4 == 31)
//! [value]  var   the node's u64 value (only when bit 7 set)
//! inputs   u8×t  transition input bytes, ascending
//! deltas   w×t   fixed-width backward deltas (node_addr − child_addr)
//! ```
//!
//! Keeping deltas fixed-width per node makes the hot lookup loop a byte
//! scan plus one unaligned little-endian read — no per-transition varint
//! decode for transitions that don't match.

use crate::varint;

/// Transition count at which the header switches to an extended count.
const COUNT_EXT: u8 = 31;
/// Header bit: this node is final and carries a value.
const HAS_VALUE: u8 = 0b1000_0000;

/// Errors from [`FstBuilder::insert`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FstBuildError {
    /// Keys must be inserted in strictly ascending byte order.
    OutOfOrder {
        /// The offending key.
        key: Vec<u8>,
    },
    /// The same key was inserted twice.
    Duplicate {
        /// The duplicated key.
        key: Vec<u8>,
    },
}

impl std::fmt::Display for FstBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FstBuildError::OutOfOrder { key } => {
                write!(f, "fst keys must be strictly ascending (got {key:?})")
            }
            FstBuildError::Duplicate { key } => write!(f, "duplicate fst key {key:?}"),
        }
    }
}

impl std::error::Error for FstBuildError {}

/// A node still open on the builder's path stack.
#[derive(Debug, Default)]
struct BuildNode {
    value: Option<u64>,
    /// `(input byte, absolute child address)`, ascending by input byte.
    trans: Vec<(u8, u64)>,
}

/// Streaming trie builder over strictly ascending keys.
///
/// Memory is bounded by the serialized output plus one stack of open
/// nodes (the current key's length), so arbitrarily many keys can be fed
/// from an external merge without materializing any intermediate map.
#[derive(Debug)]
pub struct FstBuilder {
    buf: Vec<u8>,
    /// `stack[d]` is the open node for the prefix `last_key[..d]`.
    stack: Vec<BuildNode>,
    last_key: Vec<u8>,
    len: usize,
}

impl Default for FstBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl FstBuilder {
    /// An empty builder.
    pub fn new() -> Self {
        Self {
            buf: Vec::new(),
            stack: vec![BuildNode::default()],
            last_key: Vec::new(),
            len: 0,
        }
    }

    /// Insert `key` with `value`. Keys must arrive in strictly ascending
    /// byte order; equal or descending keys are an error.
    pub fn insert(&mut self, key: &[u8], value: u64) -> Result<(), FstBuildError> {
        if self.len > 0 {
            match key.cmp(&self.last_key) {
                std::cmp::Ordering::Less => {
                    return Err(FstBuildError::OutOfOrder { key: key.to_vec() })
                }
                std::cmp::Ordering::Equal => {
                    return Err(FstBuildError::Duplicate { key: key.to_vec() })
                }
                std::cmp::Ordering::Greater => {}
            }
        }
        let cp = common_prefix(&self.last_key, key);
        self.freeze_to(cp);
        for _ in &key[cp..] {
            // Open one node per remaining byte; its address lands in the
            // parent's transition table when it freezes.
            self.stack.push(BuildNode::default());
        }
        self.stack
            .last_mut()
            .expect("stack never empty")
            .value = Some(value);
        self.last_key.clear();
        self.last_key.extend_from_slice(key);
        self.len += 1;
        Ok(())
    }

    /// Freeze open nodes until the stack holds `depth + 1` entries
    /// (root at depth 0).
    fn freeze_to(&mut self, depth: usize) {
        while self.stack.len() > depth + 1 {
            let node = self.stack.pop().expect("stack underflow");
            let addr = write_node(&mut self.buf, &node);
            let input = self.last_key[self.stack.len() - 1];
            self.stack
                .last_mut()
                .expect("root never pops here")
                .trans
                .push((input, addr));
        }
    }

    /// Finish the automaton, freezing the remaining path and the root.
    pub fn finish(mut self) -> Fst {
        self.freeze_to(0);
        let root = self.stack.pop().expect("root present");
        debug_assert!(self.stack.is_empty());
        let root_addr = write_node(&mut self.buf, &root);
        Fst {
            data: self.buf,
            root: root_addr,
            len: self.len as u64,
        }
    }
}

fn common_prefix(a: &[u8], b: &[u8]) -> usize {
    a.iter().zip(b).take_while(|(x, y)| x == y).count()
}

/// Serialize one node at the current end of `buf`, returning its address.
fn write_node(buf: &mut Vec<u8>, node: &BuildNode) -> u64 {
    let addr = buf.len() as u64;
    let t = node.trans.len();
    // Deltas are measured from the node's own address; children were
    // written earlier, so every delta is positive.
    let max_delta = node
        .trans
        .iter()
        .map(|&(_, child)| addr - child)
        .max()
        .unwrap_or(1);
    let width = delta_width(max_delta);
    let mut header = (width - 1) << 5;
    if node.value.is_some() {
        header |= HAS_VALUE;
    }
    if t < COUNT_EXT as usize {
        header |= t as u8;
        buf.push(header);
    } else {
        header |= COUNT_EXT;
        buf.push(header);
        varint::write_u64(buf, t as u64).expect("vec write");
    }
    if let Some(v) = node.value {
        varint::write_u64(buf, v).expect("vec write");
    }
    for &(b, _) in &node.trans {
        buf.push(b);
    }
    for &(_, child) in &node.trans {
        let delta = addr - child;
        buf.extend_from_slice(&delta.to_le_bytes()[..width as usize]);
    }
    addr
}

#[inline]
fn delta_width(max_delta: u64) -> u8 {
    if max_delta <= 0xFF {
        1
    } else if max_delta <= 0xFFFF {
        2
    } else if max_delta <= 0xFF_FFFF {
        3
    } else {
        4
    }
}

/// A state handle: the byte address of a node. Obtained from
/// [`Fst::root_state`] and advanced with [`Fst::step`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FstState(u64);

/// An immutable automaton, as produced by [`FstBuilder::finish`].
///
/// All reads are bounds-checked; malformed bytes yield `None` from
/// lookups rather than panicking (defense in depth: the builder is the
/// only producer).
#[derive(Debug, Clone)]
pub struct Fst {
    data: Vec<u8>,
    root: u64,
    len: u64,
}

/// A decoded node header: where the pieces of one node live. The value
/// varint is located but not decoded — the lookup loop never needs it
/// for intermediate nodes, only for the terminal one.
#[derive(Debug, Clone, Copy)]
struct NodeRef {
    /// Offset of the value varint, when the node is final.
    value_at: Option<usize>,
    /// Transition count.
    trans: usize,
    /// Offset of the input-byte array.
    inputs_at: usize,
    /// Delta width in bytes.
    width: usize,
    /// The node's own address (deltas are relative to it).
    addr: u64,
}

impl Fst {
    /// Number of keys.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// True when the automaton holds no keys.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Size of the serialized automaton in bytes.
    pub fn bytes_len(&self) -> usize {
        self.data.len()
    }

    /// Decode the node at `addr`. Returns `None` on malformed bytes.
    #[inline]
    fn node(&self, addr: u64) -> Option<NodeRef> {
        let bytes = self.data.as_slice();
        let mut at = addr as usize;
        let header = *bytes.get(at)?;
        at += 1;
        let width = (((header >> 5) & 0b11) + 1) as usize;
        let small = header & 0b1_1111;
        let trans = if small == COUNT_EXT {
            let mut cur = bytes.get(at..)?;
            let before = cur.len();
            let t = varint::read_u64(&mut cur).ok()?;
            at += before - cur.len();
            usize::try_from(t).ok()?
        } else {
            small as usize
        };
        let value_at = if header & HAS_VALUE != 0 {
            let v_at = at;
            // Skip the varint without assembling it; `node_value` decodes
            // on demand.
            loop {
                let b = *bytes.get(at)?;
                at += 1;
                if b & 0x80 == 0 {
                    break;
                }
            }
            Some(v_at)
        } else {
            None
        };
        // The whole transition table must be in bounds.
        let end = at.checked_add(trans.checked_mul(1 + width)?)?;
        if end > bytes.len() {
            return None;
        }
        Some(NodeRef {
            value_at,
            trans,
            inputs_at: at,
            width,
            addr,
        })
    }

    /// Decode the value of a final node.
    #[inline]
    fn node_value(&self, node: &NodeRef) -> Option<u64> {
        let at = node.value_at?;
        let mut cur = self.data.as_slice().get(at..)?;
        varint::read_u64(&mut cur).ok()
    }

    /// Child address for `input`, if the node has that transition.
    #[inline]
    fn child(&self, node: NodeRef, input: u8) -> Option<u64> {
        let bytes = self.data.as_slice();
        let inputs = &bytes[node.inputs_at..node.inputs_at + node.trans];
        // Small fan-out (the overwhelmingly common case in a label trie)
        // scans linearly — cheaper than binary search's branches.
        let i = if node.trans <= 16 {
            inputs.iter().position(|&b| b == input)?
        } else {
            inputs.binary_search(&input).ok()?
        };
        let deltas_at = node.inputs_at + node.trans;
        let off = deltas_at + i * node.width;
        let mut delta = 0u64;
        for (k, &b) in bytes[off..off + node.width].iter().enumerate() {
            delta |= u64::from(b) << (8 * k);
        }
        node.addr.checked_sub(delta)
    }

    /// The start state (the empty prefix).
    #[inline]
    pub fn root_state(&self) -> FstState {
        FstState(self.root)
    }

    /// Advance `state` by one input byte; `None` when no key continues
    /// this way.
    #[inline]
    pub fn step(&self, state: FstState, input: u8) -> Option<FstState> {
        let node = self.node(state.0)?;
        self.child(node, input).map(FstState)
    }

    /// The value at `state`, when the path to it spells a stored key.
    #[inline]
    pub fn value(&self, state: FstState) -> Option<u64> {
        let node = self.node(state.0)?;
        self.node_value(&node)
    }

    /// One fused decode-and-step: advance from the node at `addr` along
    /// `input`, never materializing a [`NodeRef`]. This is the exact-
    /// lookup hot loop — every byte of every gazetteer probe goes through
    /// here.
    #[inline]
    fn step_addr(bytes: &[u8], addr: u64, input: u8) -> Option<u64> {
        let mut at = addr as usize;
        let header = *bytes.get(at)?;
        at += 1;
        let width = (((header >> 5) & 0b11) + 1) as usize;
        let small = header & 0b1_1111;
        let trans = if small == COUNT_EXT {
            let mut cur = bytes.get(at..)?;
            let before = cur.len();
            let t = varint::read_u64(&mut cur).ok()?;
            at += before - cur.len();
            usize::try_from(t).ok()?
        } else {
            small as usize
        };
        if header & HAS_VALUE != 0 {
            // Skip the value varint; only terminal nodes decode it.
            loop {
                let b = *bytes.get(at)?;
                at += 1;
                if b & 0x80 == 0 {
                    break;
                }
            }
        }
        let inputs = bytes.get(at..at.checked_add(trans)?)?;
        let i = if trans <= 16 {
            inputs.iter().position(|&b| b == input)?
        } else {
            inputs.binary_search(&input).ok()?
        };
        let off = at + trans + i * width;
        let delta = if let Some(win) = bytes.get(off..off + 8) {
            // Single unaligned load, masked to the delta width.
            let raw = u64::from_le_bytes(win.try_into().ok()?);
            raw & (u64::MAX >> (64 - 8 * width))
        } else {
            let win = bytes.get(off..off.checked_add(width)?)?;
            let mut d = 0u64;
            for (k, &b) in win.iter().enumerate() {
                d |= u64::from(b) << (8 * k);
            }
            d
        };
        addr.checked_sub(delta)
    }

    /// Exact lookup. Fused walk: one decode per byte, the terminal node
    /// decoded once more for its value.
    pub fn get(&self, key: &[u8]) -> Option<u64> {
        let bytes = self.data.as_slice();
        let mut addr = self.root;
        for &b in key {
            addr = Self::step_addr(bytes, addr, b)?;
        }
        let node = self.node(addr)?;
        self.node_value(&node)
    }

    /// Iterate every `(key, value)` pair in ascending key order.
    pub fn iter(&self) -> FstIter<'_> {
        FstIter {
            fst: self,
            key: Vec::new(),
            stack: vec![IterFrame {
                addr: self.root,
                next: 0,
                yielded: false,
            }],
        }
    }
}

#[derive(Debug)]
struct IterFrame {
    addr: u64,
    next: usize,
    yielded: bool,
}

/// Depth-first, in-order iterator over `(key, value)` pairs.
#[derive(Debug)]
pub struct FstIter<'a> {
    fst: &'a Fst,
    key: Vec<u8>,
    stack: Vec<IterFrame>,
}

impl Iterator for FstIter<'_> {
    type Item = (Vec<u8>, u64);

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            let frame = self.stack.last_mut()?;
            // Malformed bytes stop iteration.
            let node = self.fst.node(frame.addr)?;
            if !frame.yielded {
                frame.yielded = true;
                if let Some(v) = self.fst.node_value(&node) {
                    return Some((self.key.clone(), v));
                }
            }
            if frame.next < node.trans {
                let i = frame.next;
                frame.next += 1;
                let input = self.fst.data.as_slice()[node.inputs_at + i];
                if let Some(child) = self.fst.child(node, input) {
                    self.key.push(input);
                    self.stack.push(IterFrame {
                        addr: child,
                        next: 0,
                        yielded: false,
                    });
                }
            } else {
                self.stack.pop();
                self.key.pop();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn build(keys: &[(&str, u64)]) -> Fst {
        let mut b = FstBuilder::new();
        for (k, v) in keys {
            b.insert(k.as_bytes(), *v).unwrap();
        }
        b.finish()
    }

    #[test]
    fn default_builder_equals_new() {
        // Regression: a derived Default once produced a rootless stack
        // that silently dropped the final byte of the first key.
        let mut b = FstBuilder::default();
        b.insert(b"bernie sanders", 1).unwrap();
        b.insert(b"sanders", 2).unwrap();
        let f = b.finish();
        assert_eq!(f.get(b"bernie sanders"), Some(1));
        assert_eq!(f.get(b"bernie sander"), None);
        assert_eq!(f.get(b"sanders"), Some(2));
    }

    #[test]
    fn empty_automaton() {
        let f = FstBuilder::new().finish();
        assert!(f.is_empty());
        assert_eq!(f.get(b""), None);
        assert_eq!(f.get(b"x"), None);
        assert_eq!(f.iter().count(), 0);
    }

    #[test]
    fn exact_lookup_round_trips() {
        let keys = [("ab", 1u64), ("abc", 2), ("abd", 3), ("b", 4), ("ba", 5)];
        let f = build(&keys);
        assert_eq!(f.len(), 5);
        for (k, v) in keys {
            assert_eq!(f.get(k.as_bytes()), Some(v), "key {k:?}");
        }
        assert_eq!(f.get(b"a"), None);
        assert_eq!(f.get(b"abe"), None);
        assert_eq!(f.get(b"abcd"), None);
        assert_eq!(f.get(b""), None);
    }

    #[test]
    fn empty_key_is_representable() {
        let f = build(&[("", 9), ("a", 1)]);
        assert_eq!(f.get(b""), Some(9));
        assert_eq!(f.get(b"a"), Some(1));
    }

    #[test]
    fn out_of_order_and_duplicate_rejected() {
        let mut b = FstBuilder::new();
        b.insert(b"b", 0).unwrap();
        assert_eq!(
            b.insert(b"a", 1),
            Err(FstBuildError::OutOfOrder { key: b"a".to_vec() })
        );
        assert_eq!(
            b.insert(b"b", 1),
            Err(FstBuildError::Duplicate { key: b"b".to_vec() })
        );
        // The builder survives rejected inserts.
        b.insert(b"c", 2).unwrap();
        let f = b.finish();
        assert_eq!(f.get(b"b"), Some(0));
        assert_eq!(f.get(b"c"), Some(2));
    }

    #[test]
    fn step_walks_states() {
        let f = build(&[("new york", 1), ("new york city", 2), ("newark", 3)]);
        let mut s = f.root_state();
        for b in "new york".bytes() {
            s = f.step(s, b).unwrap();
        }
        assert_eq!(f.value(s), Some(1));
        for b in " city".bytes() {
            s = f.step(s, b).unwrap();
        }
        assert_eq!(f.value(s), Some(2));
        assert_eq!(f.step(s, b'x'), None);
    }

    #[test]
    fn iteration_is_sorted_and_complete() {
        let keys = [
            ("bern", 10u64),
            ("bernie", 11),
            ("bernie sanders", 12),
            ("berwick", 13),
            ("sanders", 14),
        ];
        let f = build(&keys);
        let all: Vec<(String, u64)> = f
            .iter()
            .map(|(k, v)| (String::from_utf8(k).unwrap(), v))
            .collect();
        assert_eq!(
            all,
            keys.iter().map(|(k, v)| (k.to_string(), *v)).collect::<Vec<_>>()
        );
    }

    #[test]
    fn unicode_keys_survive() {
        let mut keys: Vec<(String, u64)> = vec![
            ("köln".to_string(), 1),
            ("北京".to_string(), 2),
            ("北海道".to_string(), 3),
            ("ürümqi".to_string(), 4),
        ];
        keys.sort_by(|a, b| a.0.as_bytes().cmp(b.0.as_bytes()));
        let mut b = FstBuilder::new();
        for (i, (k, _)) in keys.iter().enumerate() {
            b.insert(k.as_bytes(), i as u64).unwrap();
        }
        let f = b.finish();
        for (i, (k, _)) in keys.iter().enumerate() {
            assert_eq!(f.get(k.as_bytes()), Some(i as u64));
        }
    }

    #[test]
    fn wide_fanout_uses_extended_count() {
        // A root with 200 children exercises the extended-count header
        // and multi-byte deltas.
        let mut b = FstBuilder::new();
        let mut keys = Vec::new();
        for i in 0u32..200 {
            // Two-byte keys; first byte spreads fanout, second pads.
            keys.push(vec![(i % 250) as u8, (i / 250) as u8 + 1]);
        }
        keys.sort();
        keys.dedup();
        for (i, k) in keys.iter().enumerate() {
            b.insert(k, i as u64).unwrap();
        }
        let f = b.finish();
        for (i, k) in keys.iter().enumerate() {
            assert_eq!(f.get(k), Some(i as u64), "key {k:?}");
        }
        assert_eq!(f.len(), keys.len());
    }

    #[test]
    fn large_sorted_set_round_trips() {
        let mut keys: Vec<String> = (0..5000u32).map(|i| format!("key {i:06}")).collect();
        keys.sort();
        let mut b = FstBuilder::new();
        for (i, k) in keys.iter().enumerate() {
            b.insert(k.as_bytes(), (i * 7) as u64).unwrap();
        }
        let f = b.finish();
        for (i, k) in keys.iter().enumerate() {
            assert_eq!(f.get(k.as_bytes()), Some((i * 7) as u64));
        }
        // Prefix sharing must compress the shared "key 00…" prefixes.
        let raw: usize = keys.iter().map(|k| k.len() + 8).sum();
        assert!(
            f.bytes_len() < raw,
            "automaton ({} B) should beat raw keys+values ({} B)",
            f.bytes_len(),
            raw
        );
        let collected: Vec<String> = f
            .iter()
            .map(|(k, _)| String::from_utf8(k).unwrap())
            .collect();
        assert_eq!(collected, keys);
    }

    #[test]
    fn values_spanning_u64_range() {
        let f = build(&[("a", 0), ("b", u64::MAX), ("c", 1 << 40)]);
        assert_eq!(f.get(b"a"), Some(0));
        assert_eq!(f.get(b"b"), Some(u64::MAX));
        assert_eq!(f.get(b"c"), Some(1 << 40));
    }

    #[test]
    fn malformed_bytes_do_not_panic() {
        let good = build(&[("abc", 1), ("abd", 2)]);
        // Truncate the buffer: lookups must fail closed.
        let raw = good.data.as_slice();
        for cut in 0..raw.len() {
            let f = Fst {
                data: raw[..cut].to_vec(),
                root: good.root.min(cut.saturating_sub(1) as u64),
                len: 2,
            };
            let _ = f.get(b"abc");
            let _ = f.iter().take(10).count();
        }
    }
}
