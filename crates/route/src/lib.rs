//! `npr-route`: internet-scale lookup and classification for the
//! software router.
//!
//! The paper's fast path classifies by destination address through a
//! route *cache* with a one-cycle hardware hash (section 3.5.1); misses
//! and updates go to the slow path, which runs "the prefix matching
//! algorithm we use [Srinivasan & Varghese]" at an average of 236 cycles
//! per packet (section 4.4). This crate implements both, at BGP scale:
//!
//! * [`PrefixTrie`]: a controlled-prefix-expansion multibit trie with
//!   configurable strides, run-compressed nodes sized for ~1M prefixes,
//!   each node's routes kept in a sorted list beside it, targeted
//!   (non-rebuilding) removal, plus a naive linear-scan oracle used to
//!   property-test it;
//! * [`RouteCache`]: a direct-mapped cache of exact
//!   destination-to-next-hop bindings keyed by the hardware hash, with
//!   full-flush or targeted invalidation and lifetime hit and miss totals;
//! * [`RoutingTable`]: the control-plane view (insert / remove / bulk
//!   load) the OSPF-ish control forwarder mutates, with a refcounted
//!   next-hop arena;
//! * [`classify::TupleSpace`]: a TTSS/tuple-space 5-tuple classifier
//!   admitted through the VRP worst-case budget model;
//! * [`gen`]: the deterministic synthetic BGP-like table generator the
//!   scale tests and `experiments route` build on.

pub mod cache;
pub mod classify;
pub mod gen;
pub(crate) mod hash;
pub mod table;
pub mod trie;

pub use cache::RouteCache;
pub use table::{Invalidation, NextHop, Route, RoutingTable};
pub use trie::{PrefixTrie, TrieStats};
