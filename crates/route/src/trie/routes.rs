//! The route store: the exact routes that end in each node, kept beside
//! the node's expanded entries as sorted lists of packed words (layout
//! in the parent module's doc), and the one list an update holds open.

/// Most index bits a route word's span start can hold.
pub(super) const MAX_START_BITS: u8 = 26;

const FIXED_BITS: u32 = 6;

/// A route as its node's list stores it: the index of the first entry
/// of its span, the prefix bits it fixes within the node, its value.
#[inline]
pub(super) fn route_word(start: usize, fixed: u8, value: u32) -> u64 {
    debug_assert!(start < 1 << MAX_START_BITS && u32::from(fixed) < 1 << FIXED_BITS);
    route_key(start, fixed) << 32 | u64::from(value)
}

/// The sort key of a route word: span start, then fixed bits.
#[inline]
pub(super) fn route_key(start: usize, fixed: u8) -> u64 {
    (start as u64) << FIXED_BITS | u64::from(fixed)
}

#[inline]
pub(super) fn word_start(w: u64) -> usize {
    (w >> (32 + FIXED_BITS)) as usize
}

#[inline]
pub(super) fn word_fixed(w: u64) -> u8 {
    (w >> 32) as u8 & ((1 << FIXED_BITS) - 1)
}

#[inline]
pub(super) fn word_value(w: u64) -> u32 {
    w as u32
}

/// Where the route with sort key `key` sits in `list`, or where it would.
fn search(list: &[u64], key: u64) -> Result<usize, usize> {
    list.binary_search_by_key(&key, |&w| w >> 32)
}

/// Sorted route lists by index (a below-root level's node ids, or the
/// root's 256-entry blocks). Each list is a boxed slice of exactly its
/// routes; an update edits one list at a time in `staged`, and the list
/// is boxed again, exactly, when the update moves to another list or
/// the trie's public call returns.
#[derive(Debug, Default)]
pub(super) struct RouteLists {
    lists: Vec<Box<[u64]>>,
    /// Route words held by the lists, the open one as last closed.
    words: usize,
    /// The list an update holds in `staged`, if any.
    open: Option<usize>,
    staged: Vec<u64>,
}

impl RouteLists {
    /// `n` empty lists.
    pub(super) fn new(n: usize) -> Self {
        Self {
            lists: vec![Box::default(); n],
            ..Self::default()
        }
    }

    /// Appends an empty list (a new node id).
    pub(super) fn push(&mut self) {
        self.lists.push(Box::default());
    }

    /// Lists, empty ones included.
    pub(super) fn len(&self) -> usize {
        self.lists.len()
    }

    /// Routes held, once closed.
    pub(super) fn words(&self) -> usize {
        self.words
    }

    /// List `i`, as edited so far.
    pub(super) fn get(&self, i: usize) -> &[u64] {
        if self.open == Some(i) {
            &self.staged
        } else {
            &self.lists[i]
        }
    }

    /// The value of the route with sort key `key` in list `i`.
    pub(super) fn find(&self, i: usize, key: u64) -> Option<u32> {
        let list = self.get(i);
        let at = search(list, key).ok()?;
        Some(word_value(list[at]))
    }

    fn open(&mut self, i: usize) -> &mut Vec<u64> {
        if self.open != Some(i) {
            self.close();
            self.staged.clear();
            self.staged.extend_from_slice(&self.lists[i]);
            self.open = Some(i);
        }
        &mut self.staged
    }

    /// Puts `word` in list `i`; returns the value of the route it
    /// replaced, if the list held its key. A replacement is written
    /// where the list lies; a new key opens the list, and a word past its
    /// last key is a push, so a fill in address order builds each list
    /// in one pass.
    pub(super) fn upsert(&mut self, i: usize, word: u64) -> Option<u32> {
        let list: &mut [u64] = if self.open == Some(i) {
            &mut self.staged
        } else {
            &mut self.lists[i]
        };
        match search(list, word >> 32) {
            Ok(at) => Some(word_value(std::mem::replace(&mut list[at], word))),
            Err(at) => {
                self.open(i).insert(at, word);
                None
            }
        }
    }

    /// Removes the route with sort key `key` from list `i`; returns its
    /// value. A miss opens nothing.
    pub(super) fn remove(&mut self, i: usize, key: u64) -> Option<u32> {
        let at = search(self.get(i), key).ok()?;
        Some(word_value(self.open(i).remove(at)))
    }

    /// Boxes the open list, exactly, if any.
    pub(super) fn close(&mut self) {
        if let Some(i) = self.open.take() {
            let list: Box<[u64]> = self.staged.as_slice().into();
            self.words = self.words + list.len() - self.lists[i].len();
            self.lists[i] = list;
        }
    }

    /// Closes list `i` of a node being freed, which holds no route.
    pub(super) fn release(&mut self, i: usize) {
        self.close();
        debug_assert!(self.lists[i].is_empty(), "a freed node ends no route");
    }

    /// Resident bytes of the routes and of `headers` list headers; the
    /// staging buffer, which holds no route between calls, is not
    /// counted.
    pub(super) fn bytes(&self, headers: usize) -> usize {
        self.words * std::mem::size_of::<u64>() + headers * std::mem::size_of::<Box<[u64]>>()
    }
}
