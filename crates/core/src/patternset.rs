//! Shared pattern-set execution: N standing queries over one feed.
//!
//! A market-feed server with thousands of standing double-bottom-style
//! alerts pays N independent engine passes over the same feed.  Standing
//! queries [`join`](SetRegistry::join) a *set*: element predicates are
//! interned into **classes** (two elements share a class exactly when
//! their conjunct expressions are identical), common class prefixes are
//! counted in a trie (the Aho–Corasick move applied to OPS), the θ/φ
//! implication machinery is extended *cross-query* into an implication
//! lattice over classes, and each tuple is dispatched once: the first
//! query to test a class at a position stores the outcome, every other
//! query's test is answered from the shared memo.
//!
//! # The bit-identity guarantee
//!
//! Per-query matches, stats and armed profiles are bit-identical to solo
//! runs **by construction**, not by after-the-fact reconciliation: every
//! query still runs its own unchanged search (same engine, same
//! shift/next tables, same governor accounting — `bump()` fires before
//! the memo is consulted), and the memo only short-circuits the conjunct
//! evaluation inside `test_element` when it can prove the cached value
//! equals what evaluation would produce:
//!
//! * **Exact-class hits.**  A class key is the sorted list of the
//!   element's conjunct expressions rendered in the compiler's canonical,
//!   variable-name-free form (`cur-1.col2 < 1/2`).  Rendering is
//!   injective on the compiled IR, purely-local conjuncts never read
//!   bindings, and positions are absolute in windowed streaming clusters
//!   — so a class value at a position is a pure function of `(class,
//!   cluster, pos, policy)` and any member may reuse it.
//! * **Subset edges.**  If query B's element conjuncts are a sub-multiset
//!   of query A's, then A-true at a position forces B-true and B-false
//!   forces A-false, *per conjunct*, under every null/vacuous-boundary
//!   regime — these edges are unconditionally sound.
//! * **Contradiction edges.**  For classes whose conjuncts are pure
//!   AND/comparison trees ("strict": evaluating true witnesses a model of
//!   the solver formula), a solver-proved `f_c ∧ f_d ≡ ⊥` turns an
//!   observed c-true into a derived d-false.  The witnessing argument
//!   needs every field reference in range, so these derived entries are
//!   gated to **interior** positions (`pos ≥ back ∧ pos + fwd < avail`);
//!   boundary positions, where `VacuousTrue` can make an implication hold
//!   formula-wise but not evaluation-wise, are never derived.
//!
//! Rules that would need the *exactness* direction of the formula
//! translation (¬eval ⇒ ¬formula) — e.g. propagating a false through
//! `f_d ⇒ f_c` — are deliberately omitted: nulls and vacuous boundaries
//! break that direction, and `U` stays sound where implication is
//! unknown, exactly as in the single-query matrices.

use sqlts_lang::{Anchor, BoolExpr, CompiledQuery, FirstTuplePolicy, PatternElement, ScalarExpr};
use sqlts_relation::Value;
use sqlts_trace::PatternSetStats;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::{Arc, Mutex, RwLock};

/// Sentinel class id for elements that cannot participate in sharing.
pub(crate) const UNCLASSED: u32 = u32::MAX;

// ---------------------------------------------------------------------------
// Class interning
// ---------------------------------------------------------------------------

/// One interned predicate class: the canonical key plus the facts the
/// edge builder needs.
#[derive(Debug)]
struct ClassInfo {
    /// Sorted canonical renderings of the element's conjunct expressions.
    key: Vec<String>,
    /// Representative solver formula (identical construction for every
    /// member of the class — same conjuncts, same translation).
    formula: sqlts_constraints::Formula,
    /// Maximum backward field offset over the conjuncts.
    back: u32,
    /// Maximum forward field offset over the conjuncts.
    fwd: u32,
    /// Every conjunct is an AND/comparison tree: evaluating true
    /// witnesses a model of `formula`.
    strict: bool,
    /// How many (query, element) slots across the set carry this class.
    occurrences: u32,
}

/// One directed derivation rule of the cross-query implication lattice:
/// when the source class is observed with value `on`, the target class is
/// `val` — at interior positions only when `interior` is set.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Edge {
    on: bool,
    target: u32,
    val: bool,
    interior: bool,
    back: u32,
    fwd: u32,
}

/// Walk a scalar expression collecting `Anchor::Cur` offsets; a non-`Cur`
/// anchor disqualifies the element from classing (defensive — `local`
/// conjuncts should never carry one).
fn scalar_offsets(e: &ScalarExpr, lo: &mut i32, hi: &mut i32, cur_only: &mut bool) {
    match e {
        ScalarExpr::Field(fr) => match fr.anchor {
            Anchor::Cur => {
                *lo = (*lo).min(fr.offset);
                *hi = (*hi).max(fr.offset);
            }
            Anchor::Element { .. } => *cur_only = false,
        },
        ScalarExpr::Arith { lhs, rhs, .. } => {
            scalar_offsets(lhs, lo, hi, cur_only);
            scalar_offsets(rhs, lo, hi, cur_only);
        }
        ScalarExpr::Neg(inner) => scalar_offsets(inner, lo, hi, cur_only),
        ScalarExpr::Num { .. } | ScalarExpr::Str(_) | ScalarExpr::Date(_) => {}
    }
}

fn bool_offsets(e: &BoolExpr, lo: &mut i32, hi: &mut i32, cur_only: &mut bool) {
    match e {
        BoolExpr::Cmp { lhs, rhs, .. } => {
            scalar_offsets(lhs, lo, hi, cur_only);
            scalar_offsets(rhs, lo, hi, cur_only);
        }
        BoolExpr::And(a, b) | BoolExpr::Or(a, b) => {
            bool_offsets(a, lo, hi, cur_only);
            bool_offsets(b, lo, hi, cur_only);
        }
        BoolExpr::Not(inner) => bool_offsets(inner, lo, hi, cur_only),
        BoolExpr::Const(_) => {}
    }
}

/// AND/comparison trees only: true-evaluation then witnesses a model.
fn strict_expr(e: &BoolExpr) -> bool {
    match e {
        BoolExpr::Cmp { .. } => true,
        BoolExpr::And(a, b) => strict_expr(a) && strict_expr(b),
        BoolExpr::Or(..) | BoolExpr::Not(_) | BoolExpr::Const(_) => false,
    }
}

/// The canonical class signature of an element, if it is classable.
fn class_signature(elem: &PatternElement) -> Option<(Vec<String>, u32, u32, bool)> {
    if !elem.purely_local() {
        return None;
    }
    let (mut lo, mut hi, mut cur_only) = (0i32, 0i32, true);
    for c in &elem.conjuncts {
        bool_offsets(&c.expr, &mut lo, &mut hi, &mut cur_only);
    }
    if !cur_only {
        return None;
    }
    let mut key: Vec<String> = elem.conjuncts.iter().map(|c| c.expr.to_string()).collect();
    key.sort_unstable();
    let strict = elem.conjuncts.iter().all(|c| strict_expr(&c.expr));
    Some((key, (-lo).max(0) as u32, hi.max(0) as u32, strict))
}

/// `small ⊆ big` as sorted multisets.
fn sorted_subset(small: &[String], big: &[String]) -> bool {
    let mut it = big.iter();
    'outer: for s in small {
        for b in it.by_ref() {
            match b.cmp(s) {
                std::cmp::Ordering::Less => continue,
                std::cmp::Ordering::Equal => continue 'outer,
                std::cmp::Ordering::Greater => return false,
            }
        }
        return false;
    }
    true
}

/// The growable class table of one shared group.
#[derive(Debug, Default)]
struct Interner {
    classes: Vec<ClassInfo>,
    /// Running label for unclassable elements (unique per group, so the
    /// trie never merges them).
    next_opaque: u32,
}

impl Interner {
    /// Intern one query's elements, appending new classes and their
    /// lattice edges.  Returns the raw per-element class ids (`UNCLASSED`
    /// for unclassable elements) and the trie labels.
    fn intern_query(
        &mut self,
        query: &CompiledQuery,
        edges: &mut Vec<Vec<Edge>>,
    ) -> (Vec<u32>, Vec<(u32, bool)>) {
        let mut ids = Vec::with_capacity(query.elements.len());
        let mut labels = Vec::with_capacity(query.elements.len());
        for elem in &query.elements {
            let id = match class_signature(elem) {
                None => {
                    // Unique opaque trie label, counting down from just
                    // below the sentinel so it can never collide with a
                    // real class id.
                    self.next_opaque += 1;
                    labels.push((UNCLASSED - self.next_opaque, elem.star));
                    ids.push(UNCLASSED);
                    continue;
                }
                Some(sig) => self.intern_class(sig, &elem.formula, edges),
            };
            labels.push((id, elem.star));
            ids.push(id);
        }
        (ids, labels)
    }

    fn intern_class(
        &mut self,
        (key, back, fwd, strict): (Vec<String>, u32, u32, bool),
        formula: &sqlts_constraints::Formula,
        edges: &mut Vec<Vec<Edge>>,
    ) -> u32 {
        if let Some(id) = self.classes.iter().position(|c| c.key == key) {
            self.classes[id].occurrences += 1;
            return id as u32;
        }
        let id = self.classes.len() as u32;
        self.classes.push(ClassInfo {
            key,
            formula: formula.clone(),
            back,
            fwd,
            strict,
            occurrences: 1,
        });
        edges.push(Vec::new());
        self.link_edges(id as usize, edges);
        id
    }

    /// Build the lattice edges between a freshly interned class and every
    /// existing one.  Only rules that are sound under nulls and vacuous
    /// boundaries are emitted (see the module docs).
    fn link_edges(&self, c: usize, edges: &mut [Vec<Edge>]) {
        for d in 0..c {
            let (ci, di) = (&self.classes[c], &self.classes[d]);
            let back = ci.back.max(di.back);
            let fwd = ci.fwd.max(di.fwd);
            // Subset rules: exact per-conjunct reasoning, no gating.
            if sorted_subset(&di.key, &ci.key) {
                edges[c].push(Edge {
                    on: true,
                    target: d as u32,
                    val: true,
                    interior: false,
                    back: 0,
                    fwd: 0,
                });
                edges[d].push(Edge {
                    on: false,
                    target: c as u32,
                    val: false,
                    interior: false,
                    back: 0,
                    fwd: 0,
                });
            } else if sorted_subset(&ci.key, &di.key) {
                edges[d].push(Edge {
                    on: true,
                    target: c as u32,
                    val: true,
                    interior: false,
                    back: 0,
                    fwd: 0,
                });
                edges[c].push(Edge {
                    on: false,
                    target: d as u32,
                    val: false,
                    interior: false,
                    back: 0,
                    fwd: 0,
                });
            } else if ci.strict && di.strict && ci.formula.contradicts(&di.formula) {
                // Solver-proved mutual exclusion; interior-gated because
                // the witnessing argument needs every reference in range.
                edges[c].push(Edge {
                    on: true,
                    target: d as u32,
                    val: false,
                    interior: true,
                    back,
                    fwd,
                });
                edges[d].push(Edge {
                    on: true,
                    target: c as u32,
                    val: false,
                    interior: true,
                    back,
                    fwd,
                });
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Prefix trie (compile-time statistics)
// ---------------------------------------------------------------------------

/// Build the class-sequence prefix trie over the member label sequences;
/// returns `(node_count, shared_prefix_depth per member)` where the depth
/// counts leading elements whose trie node carries ≥ 2 members.
fn trie_stats(sequences: &[Vec<(u32, bool)>]) -> (usize, Vec<u64>) {
    struct Node {
        children: BTreeMap<(u32, bool), usize>,
        occupancy: u32,
    }
    let mut nodes = vec![Node {
        children: BTreeMap::new(),
        occupancy: 0,
    }];
    for seq in sequences {
        let mut at = 0usize;
        for &label in seq {
            let next = match nodes[at].children.get(&label) {
                Some(&n) => n,
                None => {
                    let n = nodes.len();
                    nodes.push(Node {
                        children: BTreeMap::new(),
                        occupancy: 0,
                    });
                    nodes[at].children.insert(label, n);
                    n
                }
            };
            nodes[next].occupancy += 1;
            at = next;
        }
    }
    let depths = sequences
        .iter()
        .map(|seq| {
            let mut at = 0usize;
            let mut depth = 0u64;
            for &label in seq {
                let Some(&next) = nodes[at].children.get(&label) else {
                    break;
                };
                if nodes[next].occupancy < 2 {
                    break;
                }
                depth += 1;
                at = next;
            }
            depth
        })
        .collect();
    (nodes.len() - 1, depths)
}

// ---------------------------------------------------------------------------
// Runtime: the shared memo
// ---------------------------------------------------------------------------

#[derive(Clone, Copy, Debug)]
struct Entry {
    val: bool,
    owner: u16,
    derived: bool,
}

#[derive(Debug, Default)]
struct CacheInner {
    map: BTreeMap<(u64, u32), Entry>,
    saved: u64,
    shared: u64,
}

/// The per-cluster shared memo: `(position, class) → value`, plus the
/// deterministic savings counters.  `Mutex`-based so concurrent server
/// subscription workers can share one cache; the value at a key is a pure
/// function of the key, so racing writers always agree.
#[derive(Debug, Default)]
struct ClusterCache {
    inner: Mutex<CacheInner>,
}

impl ClusterCache {
    fn probe(&self, pos: u64, class: u32, query: u16) -> Option<bool> {
        let mut inner = self.inner.lock().expect("patternset cache lock");
        let entry = *inner.map.get(&(pos, class))?;
        inner.saved += 1;
        if entry.owner != query || entry.derived {
            inner.shared += 1;
        }
        Some(entry.val)
    }

    fn store(&self, edges: &[Vec<Edge>], pos: u64, class: u32, avail: u64, val: bool, query: u16) {
        let mut inner = self.inner.lock().expect("patternset cache lock");
        inner.map.entry((pos, class)).or_insert(Entry {
            val,
            owner: query,
            derived: false,
        });
        for edge in &edges[class as usize] {
            if edge.on != val {
                continue;
            }
            if edge.interior && (pos < edge.back as u64 || pos + edge.fwd as u64 + 1 > avail) {
                continue;
            }
            inner.map.entry((pos, edge.target)).or_insert(Entry {
                val: edge.val,
                owner: query,
                derived: true,
            });
        }
    }

    /// Drop every entry below `floor` (streaming window compaction); the
    /// savings counters are untouched.
    fn prune_below(&self, floor: u64) {
        let mut inner = self.inner.lock().expect("patternset cache lock");
        inner.map = inner.map.split_off(&(floor, 0));
    }

    /// `(saved, shared)` counter snapshot.
    fn counters(&self) -> (u64, u64) {
        let inner = self.inner.lock().expect("patternset cache lock");
        (inner.saved, inner.shared)
    }

    #[cfg(test)]
    fn entries(&self) -> usize {
        self.inner.lock().unwrap().map.len()
    }
}

type Edges = Arc<RwLock<Vec<Vec<Edge>>>>;

/// One query's view into a shared group for a single cluster: installed
/// into that cluster's [`EvalCounter`], consulted by `test_element`
/// between `bump()` and conjunct evaluation.
pub struct SharedEvalHandle {
    cache: Arc<ClusterCache>,
    edges: Edges,
    classes: Arc<[u32]>,
    query: u16,
}

impl fmt::Debug for SharedEvalHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SharedEvalHandle")
            .field("query", &self.query)
            .finish_non_exhaustive()
    }
}

impl SharedEvalHandle {
    #[inline]
    pub(crate) fn probe(&self, elem0: usize, pos: usize) -> Option<bool> {
        let class = *self.classes.get(elem0)?;
        if class == UNCLASSED {
            return None;
        }
        self.cache.probe(pos as u64, class, self.query)
    }

    pub(crate) fn store(&self, elem0: usize, pos: usize, avail: usize, val: bool) {
        let Some(&class) = self.classes.get(elem0) else {
            return;
        };
        if class == UNCLASSED {
            return;
        }
        let edges = self.edges.read().expect("patternset edges lock");
        self.cache
            .store(&edges, pos as u64, class, avail as u64, val, self.query);
    }
}

// ---------------------------------------------------------------------------
// Streaming / server: the standing-query registry
// ---------------------------------------------------------------------------

/// One shared group of standing queries on a feed.
struct RegistryGroup {
    origin: u64,
    cluster_by: Vec<String>,
    sequence_by: Vec<String>,
    policy: FirstTuplePolicy,
    interner: Interner,
    edges: Edges,
    caches: Arc<Mutex<BTreeMap<Vec<Value>, Arc<ClusterCache>>>>,
    labels: Vec<Vec<(u32, bool)>>,
    members: u16,
}

/// A registry of standing queries sharing one feed (one per server
/// channel).  Subscriptions [`join`](SetRegistry::join) as they are
/// created; joining interns the query's classes into the matching group
/// (grouping is keyed by stream **origin** — the feed position the
/// subscription's cluster positions are counted from — plus
/// `CLUSTER BY`/`SEQUENCE BY` and policy, so late joiners and resumed
/// subscriptions only ever share with members whose absolute positions
/// line up).
#[derive(Default)]
pub struct SetRegistry {
    groups: Mutex<Vec<RegistryGroup>>,
}

impl fmt::Debug for SetRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let groups = self.groups.lock().expect("patternset registry lock");
        f.debug_struct("SetRegistry")
            .field("groups", &groups.len())
            .finish()
    }
}

impl SetRegistry {
    /// An empty registry.
    pub fn new() -> SetRegistry {
        SetRegistry::default()
    }

    /// Join a standing query to the registry, creating its group on first
    /// contact.  Returns `None` when the pattern has no shareable
    /// (purely-local) element — the caller then runs exactly as before.
    /// Every classed element is cacheable: future joiners are unknown, so
    /// the memo is filled optimistically.
    pub fn join(
        &self,
        origin: u64,
        query: &CompiledQuery,
        policy: FirstTuplePolicy,
    ) -> Option<SharedJoin> {
        if !query.elements.iter().any(|e| class_signature(e).is_some()) {
            return None;
        }
        let mut groups = self.groups.lock().expect("patternset registry lock");
        let group = match groups.iter_mut().find(|g| {
            g.origin == origin
                && g.cluster_by == query.cluster_by
                && g.sequence_by == query.sequence_by
                && g.policy == policy
        }) {
            Some(group) => group,
            None => {
                groups.push(RegistryGroup {
                    origin,
                    cluster_by: query.cluster_by.clone(),
                    sequence_by: query.sequence_by.clone(),
                    policy,
                    interner: Interner::default(),
                    edges: Arc::new(RwLock::new(Vec::new())),
                    caches: Arc::new(Mutex::new(BTreeMap::new())),
                    labels: Vec::new(),
                    members: 0,
                });
                groups.last_mut().expect("just pushed")
            }
        };
        let mut edges = group.edges.write().expect("patternset edges lock");
        let (ids, labels) = group.interner.intern_query(query, &mut edges);
        drop(edges);
        group.labels.push(labels);
        let query_id = group.members;
        group.members += 1;
        Some(SharedJoin {
            edges: Arc::clone(&group.edges),
            caches: Arc::clone(&group.caches),
            classes: ids.into(),
            query: query_id,
        })
    }

    /// Registry-wide statistics: compile-time structure plus the runtime
    /// savings counters summed over every group's cluster caches.
    /// `tests_logical`/`tests_evaluated` are left for the caller, which
    /// knows the members' logical test totals.
    pub fn stats(&self) -> PatternSetStats {
        let groups = self.groups.lock().expect("patternset registry lock");
        let mut stats = PatternSetStats::default();
        for group in groups.iter() {
            stats.queries += group.members as usize;
            if group.members >= 2 {
                stats.groups += 1;
            } else {
                stats.solo += group.members as usize;
            }
            stats.classes += group.interner.classes.len();
            let edges = group.edges.read().expect("patternset edges lock");
            stats.implication_edges += edges.iter().map(Vec::len).sum::<usize>();
            let (nodes, depths) = trie_stats(&group.labels);
            stats.trie_nodes += nodes;
            for d in depths {
                stats.shared_prefix_depth.record(d);
            }
            let caches = group.caches.lock().expect("patternset cache registry lock");
            for cache in caches.values() {
                let (saved, shared) = cache.counters();
                stats.tests_saved += saved;
                stats.tests_shared += shared;
            }
        }
        stats
    }
}

/// A standing query's membership in a [`SetRegistry`] group, carried by
/// its streaming session: hands out per-cluster
/// [`SharedEvalHandle`]s keyed by the cluster's key values.
#[derive(Clone)]
pub struct SharedJoin {
    edges: Edges,
    caches: Arc<Mutex<BTreeMap<Vec<Value>, Arc<ClusterCache>>>>,
    classes: Arc<[u32]>,
    query: u16,
}

impl fmt::Debug for SharedJoin {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SharedJoin")
            .field("query", &self.query)
            .finish_non_exhaustive()
    }
}

impl SharedJoin {
    /// The eval handle for one cluster, creating its cache on first use.
    pub(crate) fn handle_for(&self, key: &[Value]) -> SharedEvalHandle {
        let mut caches = self.caches.lock().expect("patternset cache registry lock");
        let cache = caches
            .entry(key.to_vec())
            .or_insert_with(|| Arc::new(ClusterCache::default()));
        SharedEvalHandle {
            cache: Arc::clone(cache),
            edges: Arc::clone(&self.edges),
            classes: Arc::clone(&self.classes),
            query: self.query,
        }
    }

    /// Drop memo entries below `floor` for one cluster (called alongside
    /// the session's window compaction; soft state, safe to over-prune).
    pub(crate) fn prune_below(&self, key: &[Value], floor: u64) {
        let caches = self.caches.lock().expect("patternset cache registry lock");
        if let Some(cache) = caches.get(key) {
            cache.prune_below(floor);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqlts_lang::{compile, CompileOptions};
    use sqlts_relation::{ColumnType, Schema};

    fn schema() -> Schema {
        Schema::new([
            ("name", ColumnType::Str),
            ("day", ColumnType::Int),
            ("price", ColumnType::Float),
        ])
        .unwrap()
    }

    fn q(src: &str) -> CompiledQuery {
        compile(src, &schema(), &CompileOptions::default()).unwrap()
    }

    /// Join every query to a fresh registry at feed position zero.
    fn joined(queries: &[CompiledQuery]) -> SetRegistry {
        let registry = SetRegistry::new();
        for query in queries {
            registry
                .join(0, query, FirstTuplePolicy::default())
                .expect("every test query has a shareable element");
        }
        registry
    }

    #[test]
    fn identical_elements_intern_to_one_class() {
        let registry = joined(&[
            q(
                "SELECT X.name FROM t CLUSTER BY name SEQUENCE BY day AS (X, Y) \
               WHERE X.price > 95 AND Y.price > 95",
            ),
            q(
                "SELECT X.name FROM t CLUSTER BY name SEQUENCE BY day AS (X, Y) \
               WHERE X.price > 95 AND Y.price < 90",
            ),
        ]);
        let stats = registry.stats();
        assert_eq!(stats.groups, 1);
        assert_eq!(stats.solo, 0);
        // Classes: "price > 95" (×3 occurrences) and "price < 90".
        assert_eq!(stats.classes, 2);
        // The two queries share exactly their first element in the trie.
        assert_eq!(stats.shared_prefix_depth.count(), 2);
        assert_eq!(stats.shared_prefix_depth.max(), 1);
    }

    #[test]
    fn subset_and_contradiction_edges_are_built() {
        let mut interner = Interner::default();
        let mut edges: Vec<Vec<Edge>> = Vec::new();
        let a = q(
            "SELECT X.name FROM t CLUSTER BY name SEQUENCE BY day AS (X) \
                   WHERE X.price > 100 AND X.price < 200",
        );
        let b = q(
            "SELECT X.name FROM t CLUSTER BY name SEQUENCE BY day AS (X) \
                   WHERE X.price > 100",
        );
        let c = q(
            "SELECT X.name FROM t CLUSTER BY name SEQUENCE BY day AS (X) \
                   WHERE X.price < 50",
        );
        interner.intern_query(&a, &mut edges);
        interner.intern_query(&b, &mut edges);
        interner.intern_query(&c, &mut edges);
        assert_eq!(interner.classes.len(), 3);
        // a ⊇ b: a-true → b-true; b-false → a-false.
        assert!(edges[0]
            .iter()
            .any(|e| e.on && e.target == 1 && e.val && !e.interior));
        assert!(edges[1]
            .iter()
            .any(|e| !e.on && e.target == 0 && !e.val && !e.interior));
        // b ("price > 100") contradicts c ("price < 50"), interior-gated.
        assert!(edges[1]
            .iter()
            .any(|e| e.on && e.target == 2 && !e.val && e.interior));
        assert!(edges[2]
            .iter()
            .any(|e| e.on && e.target == 1 && !e.val && e.interior));
    }

    #[test]
    fn mixed_cluster_keys_split_into_groups_and_solo() {
        let registry = joined(&[
            q(
                "SELECT X.name FROM t CLUSTER BY name SEQUENCE BY day AS (X, Y) \
               WHERE Y.price > 95",
            ),
            q("SELECT X.day AS d FROM t SEQUENCE BY day AS (X, Y) \
               WHERE Y.price > 95"),
            q(
                "SELECT X.name FROM t CLUSTER BY name SEQUENCE BY day AS (X, Y) \
               WHERE Y.price < 90",
            ),
        ]);
        let stats = registry.stats();
        assert_eq!(stats.queries, 3);
        assert_eq!(stats.groups, 1, "the two CLUSTER BY name queries group");
        assert_eq!(stats.solo, 1, "the unclustered query runs solo");
    }

    #[test]
    fn registry_join_and_cache_roundtrip() {
        let registry = SetRegistry::new();
        let a = q(
            "SELECT X.name FROM t CLUSTER BY name SEQUENCE BY day AS (X, Y) \
                   WHERE X.price > 95 AND Y.price > 95",
        );
        let join_a = registry.join(0, &a, FirstTuplePolicy::default()).unwrap();
        let join_b = registry.join(0, &a, FirstTuplePolicy::default()).unwrap();
        // Different origin → different group, no cross-talk.
        let join_c = registry.join(7, &a, FirstTuplePolicy::default()).unwrap();
        let key = vec![Value::from("AAA")];
        let ha = join_a.handle_for(&key);
        let hb = join_b.handle_for(&key);
        let hc = join_c.handle_for(&key);
        assert_eq!(ha.probe(0, 3), None);
        ha.store(0, 3, 10, true);
        assert_eq!(hb.probe(0, 3), Some(true), "same group shares the memo");
        assert_eq!(hc.probe(0, 3), None, "different origin must not share");
        let stats = registry.stats();
        assert_eq!(stats.queries, 3);
        assert_eq!(stats.groups, 1);
        assert_eq!(stats.solo, 1);
        assert_eq!(stats.tests_saved, 1);
        assert_eq!(stats.tests_shared, 1);
    }

    #[test]
    fn cache_prune_drops_only_older_positions() {
        let cache = ClusterCache::default();
        let edges: Vec<Vec<Edge>> = vec![Vec::new()];
        for pos in 0..10u64 {
            cache.store(&edges, pos, 0, 100, true, 0);
        }
        assert_eq!(cache.entries(), 10);
        cache.prune_below(6);
        assert_eq!(cache.entries(), 4);
        assert_eq!(cache.probe(5, 0, 1), None);
        assert_eq!(cache.probe(7, 0, 1), Some(true));
    }

    #[test]
    fn derived_entries_respect_the_interior_gate() {
        // Two contradicting strict classes with a one-back reference on
        // class 0: price > 100 ∧ prev-dependent margins.
        let mut interner = Interner::default();
        let mut edges: Vec<Vec<Edge>> = Vec::new();
        let a = q(
            "SELECT X.name FROM t CLUSTER BY name SEQUENCE BY day AS (X) \
                   WHERE X.price > 100 AND X.previous.price > 100",
        );
        let b = q(
            "SELECT X.name FROM t CLUSTER BY name SEQUENCE BY day AS (X) \
                   WHERE X.price < 50",
        );
        let (ids_a, _) = interner.intern_query(&a, &mut edges);
        let (ids_b, _) = interner.intern_query(&b, &mut edges);
        assert_eq!(ids_a, vec![0]);
        assert_eq!(ids_b, vec![1]);
        let cache = ClusterCache::default();
        // Boundary position 0: back margin is 1, so no derivation.
        cache.store(&edges, 0, 0, 10, true, 0);
        assert_eq!(cache.probe(0, 1, 1), None, "boundary must not derive");
        // Interior position: observing class 0 true derives class 1 false.
        cache.store(&edges, 5, 0, 10, true, 0);
        assert_eq!(cache.probe(5, 1, 1), Some(false));
    }
}
