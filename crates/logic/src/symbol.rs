//! Interned symbols.
//!
//! Every functor and constant name in a program is interned once into a
//! [`SymbolTable`]; the rest of the system only ever compares the 32-bit
//! [`Sym`] handles. The table is owned by the clause database and is
//! read-only during search, so a database wrapped in `Arc` can be shared
//! freely across worker threads.
//!
//! The table is **cheap to clone and cheap to extend after a clone**,
//! because the MVCC store keeps one table per epoch and every write
//! transaction that introduces vocabulary starts from a clone of the
//! committed one. Names live in `Arc`-shared chunks of
//! `NAMES_PER_CHUNK` (one text buffer per chunk, no per-name
//! allocation); the name → handle map is split into `LOOKUP_SHARDS`
//! `Arc`-shared shards keyed by the name's 64-bit hash. A clone copies
//! the chunk and shard *pointers*; the first `intern` of a new name after
//! a clone copies one shard and the tail chunk, nothing else.

use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasher, BuildHasherDefault, Hasher};
use std::sync::Arc;

/// A handle to an interned string.
///
/// `Sym` values are only meaningful relative to the [`SymbolTable`] that
/// produced them; two tables intern independently.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct Sym(pub u32);

impl Sym {
    /// Index into the owning table's storage.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Names per shared chunk: what the first new name after a clone copies.
const NAMES_PER_CHUNK: usize = 256;

/// Shards of the name → handle map: a new name after a clone copies
/// `1/LOOKUP_SHARDS` of the map.
const LOOKUP_SHARDS: usize = 64;

/// [`NAMES_PER_CHUNK`] consecutive names in one text buffer.
#[derive(Clone, Default)]
struct NameChunk {
    text: String,
    /// `ends[i]` is where name `i` of this chunk ends in `text`.
    ends: Vec<u32>,
}

impl NameChunk {
    fn name(&self, i: usize) -> &str {
        let start = if i == 0 { 0 } else { self.ends[i - 1] as usize };
        &self.text[start..self.ends[i] as usize]
    }

    fn push(&mut self, name: &str) {
        self.text.push_str(name);
        let end = u32::try_from(self.text.len()).expect("a name chunk holds under 4 GiB of text");
        self.ends.push(end);
    }
}

/// Keys of a lookup shard are already hashes: pass them through.
#[derive(Clone, Copy, Default)]
struct HashIsKey(u64);

impl Hasher for HashIsKey {
    fn write(&mut self, _: &[u8]) {
        unreachable!("lookup shards are keyed by u64 only");
    }

    fn write_u64(&mut self, key: u64) {
        self.0 = key;
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// One shard of the name → handle map: name hash → handle. Two names
/// with one hash sit at consecutive keys (see [`SymbolTable::probe`]).
type LookupShard = HashMap<u64, Sym, BuildHasherDefault<HashIsKey>>;

/// An append-only string interner. See the module docs for the layout.
///
/// `S` hashes names; the default is randomly keyed per table, which is
/// what makes using its output as the shards' own hash safe for names
/// that arrive from outside the program.
#[derive(Clone)]
pub struct SymbolTable<S = RandomState> {
    /// Name `i` is `names[i / NAMES_PER_CHUNK].name(i % NAMES_PER_CHUNK)`;
    /// every chunk but the last is full.
    names: Vec<Arc<NameChunk>>,
    /// `None` until the shard holds a name, so an empty table allocates
    /// nothing.
    lookup: [Option<Arc<LookupShard>>; LOOKUP_SHARDS],
    hasher: S,
    len: u32,
}

impl<S: Default> Default for SymbolTable<S> {
    fn default() -> Self {
        SymbolTable {
            names: Vec::new(),
            lookup: [const { None }; LOOKUP_SHARDS],
            hasher: S::default(),
            len: 0,
        }
    }
}

impl SymbolTable {
    /// Create an empty table.
    pub fn new() -> Self {
        Self::default()
    }
}

impl<S: BuildHasher> SymbolTable<S> {
    /// Find `name`: its handle, or else the shard and the free key a new
    /// handle for it goes under. Names whose hashes collide take
    /// consecutive keys of the colliding hash's shard; the table never
    /// deletes, so a free key ends the run.
    fn probe(&self, name: &str) -> Result<Sym, (usize, u64)> {
        let hash = self.hasher.hash_one(name);
        // Middle bits pick the shard: the shard's own table indexes by
        // the low bits and tags by the high ones.
        let shard = (hash >> 32) as usize % LOOKUP_SHARDS;
        let mut key = hash;
        while let Some(&sym) = self.lookup[shard].as_ref().and_then(|s| s.get(&key)) {
            if self.name(sym) == name {
                return Ok(sym);
            }
            key = key.wrapping_add(1);
        }
        Err((shard, key))
    }

    /// Intern `name`, returning the existing handle if already present.
    pub fn intern(&mut self, name: &str) -> Sym {
        let (shard, key) = match self.probe(name) {
            Ok(sym) => return sym,
            Err(free) => free,
        };
        let sym = Sym(self.len);
        if self.len().is_multiple_of(NAMES_PER_CHUNK) {
            self.names.push(Arc::default());
        }
        let tail = self
            .names
            .last_mut()
            .expect("a chunk was pushed for this name");
        Arc::make_mut(tail).push(name);
        Arc::make_mut(self.lookup[shard].get_or_insert_with(Arc::default)).insert(key, sym);
        self.len = self.len.checked_add(1).expect("symbol handles are 32-bit");
        sym
    }

    /// Look up a handle without interning. Returns `None` if `name` was
    /// never interned.
    pub fn get(&self, name: &str) -> Option<Sym> {
        self.probe(name).ok()
    }
}

impl<S> SymbolTable<S> {
    /// The string for `sym`.
    ///
    /// # Panics
    /// Panics if `sym` did not come from this table.
    pub fn name(&self, sym: Sym) -> &str {
        let i = sym.index();
        self.names[i / NAMES_PER_CHUNK].name(i % NAMES_PER_CHUNK)
    }

    /// Number of distinct symbols interned so far.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

impl<S> fmt::Debug for SymbolTable<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SymbolTable")
            .field("len", &self.len)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let mut t = SymbolTable::new();
        let a = t.intern("foo");
        let b = t.intern("foo");
        assert_eq!(a, b);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn distinct_names_distinct_syms() {
        let mut t = SymbolTable::new();
        let a = t.intern("foo");
        let b = t.intern("bar");
        assert_ne!(a, b);
        assert_eq!(t.name(a), "foo");
        assert_eq!(t.name(b), "bar");
    }

    #[test]
    fn get_does_not_intern() {
        let mut t = SymbolTable::new();
        assert!(t.get("x").is_none());
        let s = t.intern("x");
        assert_eq!(t.get("x"), Some(s));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn empty_and_len() {
        let mut t = SymbolTable::new();
        assert!(t.is_empty());
        t.intern("a");
        assert!(!t.is_empty());
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn handles_are_dense_and_names_survive_chunk_edges() {
        let mut t = SymbolTable::new();
        let n = 3 * NAMES_PER_CHUNK + 7;
        for i in 0..n {
            assert_eq!(t.intern(&format!("s{i}")), Sym(i as u32));
        }
        assert_eq!(t.len(), n);
        for i in [
            0,
            1,
            NAMES_PER_CHUNK - 1,
            NAMES_PER_CHUNK,
            2 * NAMES_PER_CHUNK,
            n - 1,
        ] {
            assert_eq!(t.name(Sym(i as u32)), format!("s{i}"));
            assert_eq!(t.get(&format!("s{i}")), Some(Sym(i as u32)));
        }
        assert_eq!(t.get(&format!("s{n}")), None);
        assert_eq!(t.get(""), None);
        let empty = t.intern("");
        assert_eq!(t.name(empty), "");
    }

    #[test]
    fn a_clone_extends_without_disturbing_the_original() {
        let mut base = SymbolTable::new();
        for i in 0..NAMES_PER_CHUNK + 10 {
            base.intern(&format!("b{i}"));
        }
        let mut a = base.clone();
        let mut b = base.clone();
        let in_a = a.intern("only_a");
        let in_b = b.intern("only_b");
        // Both branches extend the same tail chunk from the same length.
        assert_eq!(in_a, in_b);
        assert_eq!(a.name(in_a), "only_a");
        assert_eq!(b.name(in_b), "only_b");
        assert_eq!(a.get("only_b"), None);
        assert_eq!(b.get("only_a"), None);
        assert_eq!(base.len(), NAMES_PER_CHUNK + 10);
        assert_eq!(base.get("only_a"), None);
        for i in 0..base.len() {
            assert_eq!(a.get(&format!("b{i}")), Some(Sym(i as u32)));
            assert_eq!(b.name(Sym(i as u32)), format!("b{i}"));
        }
        // Every full chunk is still the base's own.
        assert!(Arc::ptr_eq(&a.names[0], &base.names[0]));
        assert!(!Arc::ptr_eq(&a.names[1], &base.names[1]));
    }

    /// Hashes every name to the same value.
    #[derive(Clone, Copy, Default)]
    struct AllCollide;

    impl Hasher for AllCollide {
        fn write(&mut self, _: &[u8]) {}

        fn finish(&self) -> u64 {
            u64::MAX
        }
    }

    #[test]
    fn colliding_hashes_still_resolve_by_name() {
        let mut t: SymbolTable<BuildHasherDefault<AllCollide>> = SymbolTable::default();
        let names = ["a", "b", "c", "dd", ""];
        let syms: Vec<Sym> = names.iter().map(|n| t.intern(n)).collect();
        for (i, n) in names.iter().enumerate() {
            assert_eq!(syms[i], Sym(i as u32));
            assert_eq!(t.get(n), Some(syms[i]));
            assert_eq!(t.intern(n), syms[i]);
            assert_eq!(t.name(syms[i]), *n);
        }
        assert_eq!(t.get("e"), None);
        assert_eq!(t.len(), names.len());
    }
}
