//! Run-compressed storage for one below-root level of the trie: node
//! heads and runs by node id, the codec between them and a node's
//! expanded entries, and the one node an update holds open (layout in
//! the parent module's doc).

use super::node_id;

/// Bitmap words of a node of `size` entries.
fn bitmap_words(size: usize) -> usize {
    size.div_ceil(64)
}

/// Head words of a node of `size` entries: its bitmap, then each bitmap
/// word's rank (the bits set before it), two `u32` lanes to a word.
fn head_words(size: usize) -> usize {
    let bitmap = bitmap_words(size);
    bitmap + bitmap.div_ceil(2)
}

/// Run-compresses a node's expanded entries (see the trie's module doc):
/// writes its `head` and returns its runs.
fn encode(entries: &[u64], head: &mut [u64]) -> Box<[u64]> {
    let starts = || (0..entries.len()).filter(|&i| i == 0 || entries[i] != entries[i - 1]);
    let mut runs = Vec::with_capacity(starts().count());
    let (bitmap, ranks) = head.split_at_mut(bitmap_words(entries.len()));
    bitmap.fill(0);
    for i in starts() {
        bitmap[i / 64] |= 1 << (i % 64);
        runs.push(entries[i]);
    }
    ranks.fill(0);
    let mut rank = 0u64;
    for (k, word) in bitmap.iter().enumerate() {
        ranks[k / 2] |= rank << (32 * (k % 2));
        rank += u64::from(word.count_ones());
    }
    runs.into_boxed_slice()
}

/// Expands a run-compressed node into `out`, whose length is the
/// node's entry count.
fn decode(head: &[u64], runs: &[u64], out: &mut [u64]) {
    let mut runs = runs.iter();
    let mut cur = 0;
    for (i, e) in out.iter_mut().enumerate() {
        if head[i / 64] >> (i % 64) & 1 != 0 {
            cur = *runs.next().expect("one run per bitmap bit");
        }
        *e = cur;
    }
}

/// Entry `idx` of a run-compressed node of `size` entries, read in
/// place: one rank lane plus one masked popcount.
#[inline]
fn run_entry(head: &[u64], runs: &[u64], size: usize, idx: usize) -> u64 {
    let (w, b) = (idx / 64, idx % 64);
    let before = (head[bitmap_words(size) + w / 2] >> (32 * (w % 2))) & u64::from(u32::MAX);
    let rank = before + u64::from((head[w] & (u64::MAX >> (63 - b))).count_ones());
    runs[rank as usize - 1]
}

/// The nodes of one below-root level, all `2^stride` entries wide.
/// Heads and runs sit in parallel arrays by node id, so a lookup
/// fetches a node's head and its runs' address independently.
#[derive(Debug)]
pub(super) struct Level {
    /// Head words per node.
    head_words: usize,
    /// Every node's head (see [`head_words`]), by id.
    heads: Vec<u64>,
    /// Every node's runs, by id; a freed id holds an empty slice until
    /// it is reused through `free`.
    runs: Vec<Box<[u64]>>,
    free: Vec<u32>,
    /// Run words held by live nodes.
    run_words: usize,
    /// The node an update holds expanded in `entries`, if any. Every
    /// public call of the trie returns with none open.
    open: Option<u32>,
    entries: Vec<u64>,
}

impl Level {
    /// An empty level of `2^stride`-entry nodes.
    pub(super) fn new(stride: u8) -> Self {
        let size = 1usize << stride;
        Self {
            head_words: head_words(size),
            heads: Vec::new(),
            runs: Vec::new(),
            free: Vec::new(),
            run_words: 0,
            open: None,
            entries: vec![0; size],
        }
    }

    /// Live nodes.
    pub(super) fn live(&self) -> usize {
        self.runs.len() - self.free.len()
    }

    /// Logical expanded entries of the live nodes.
    pub(super) fn expanded(&self) -> usize {
        self.live() * self.entries.len()
    }

    /// Node ids ever allocated, live or free.
    #[cfg(test)]
    pub(super) fn slots(&self) -> usize {
        self.runs.len()
    }

    /// Resident bytes: the open-node buffer, and each live node's head,
    /// runs and slice header.
    pub(super) fn bytes(&self) -> usize {
        (self.entries.len() + self.live() * self.head_words + self.run_words)
            * std::mem::size_of::<u64>()
            + self.live() * std::mem::size_of::<Box<[u64]>>()
    }

    /// Where node `id`'s head sits in `heads`.
    fn head(&self, id: u32) -> std::ops::Range<usize> {
        let at = id as usize * self.head_words;
        at..at + self.head_words
    }

    /// Entry `idx` of node `id`, from the expanded copy if it is open.
    #[inline]
    pub(super) fn entry(&self, id: u32, idx: usize) -> u64 {
        if self.open == Some(id) {
            self.entries[idx]
        } else {
            let head = &self.heads[self.head(id)];
            run_entry(head, &self.runs[id as usize], self.entries.len(), idx)
        }
    }

    /// Node `id`'s entries for writing, opening it (and re-encoding the
    /// node open before it) if it is not open.
    pub(super) fn open_mut(&mut self, id: u32) -> &mut [u64] {
        if self.open != Some(id) {
            self.close();
            let head = &self.heads[self.head(id)];
            decode(head, &self.runs[id as usize], &mut self.entries);
            self.open = Some(id);
        }
        &mut self.entries
    }

    /// Re-encodes the open node, if any.
    pub(super) fn close(&mut self) {
        if let Some(id) = self.open.take() {
            let at = self.head(id);
            let runs = encode(&self.entries, &mut self.heads[at]);
            let slot = &mut self.runs[id as usize];
            self.run_words = self.run_words + runs.len() - slot.len();
            *slot = runs;
        }
    }

    /// Allocates an empty node and opens it.
    pub(super) fn alloc(&mut self) -> u32 {
        let id = match self.free.pop() {
            Some(id) => id,
            None => {
                let id = node_id(self.runs.len());
                self.runs.push(Box::default());
                self.heads.resize(self.heads.len() + self.head_words, 0);
                id
            }
        };
        self.close();
        self.entries.fill(0);
        self.open = Some(id);
        id
    }

    /// Frees node `id`, which is open, discarding its entries.
    pub(super) fn release(&mut self, id: u32) {
        debug_assert_eq!(self.open, Some(id), "only an open node is freed");
        self.open = None;
        self.run_words -= std::mem::take(&mut self.runs[id as usize]).len();
        self.free.push(id);
    }
}

#[cfg(test)]
mod tests {
    use super::super::{with_child, with_value, MAX_NODES};
    use super::*;
    use npr_check::prelude::*;
    use npr_check::sample::Index;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        /// Any node, `2^4` to `2^16` entries of runs of value, child and
        /// empty words, survives the run encoding bit for bit, and every
        /// indexed read of the encoded form sees the expanded entry.
        #[test]
        fn run_encoding_round_trips(
            log_size in 4u32..=16,
            runs in npr_check::collection::vec(
                (any::<Index>(), 0u8..4, any::<u32>(), 0u8..=32), 0..48),
        ) {
            let size = 1usize << log_size;
            let mut starts: Vec<(usize, u64)> = runs
                .iter()
                .map(|&(at, kind, v, plen)| {
                    let value = with_value(0, v, plen);
                    let child = with_child(0, v & (MAX_NODES as u32 - 1));
                    let word = [0, value, child, value | child][usize::from(kind)];
                    (at.index(size), word)
                })
                .collect();
            starts.sort_by_key(|&(at, _)| at);
            let mut entries = vec![0u64; size];
            for (k, &(at, word)) in starts.iter().enumerate() {
                let end = starts.get(k + 1).map_or(size, |&(next, _)| next);
                entries[at..end].fill(word);
            }

            // Stale bits, as a reused node id's head holds.
            let mut head = vec![u64::MAX; head_words(size)];
            let runs = encode(&entries, &mut head);
            let distinct = 1 + entries.windows(2).filter(|w| w[0] != w[1]).count();
            prop_assert_eq!(runs.len(), distinct);
            let mut out = vec![u64::MAX; size];
            decode(&head, &runs, &mut out);
            prop_assert!(out == entries, "decode differs at {:?}",
                out.iter().zip(&entries).position(|(a, b)| a != b));
            for (i, &e) in entries.iter().enumerate() {
                prop_assert_eq!(run_entry(&head, &runs, size, i), e, "entry {}", i);
            }
        }
    }
}
