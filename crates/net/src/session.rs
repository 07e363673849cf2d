//! Incremental max-min solving: a resident problem plus flow deltas.
//!
//! [`SolveSession`] keeps a [`MaxMinProblem`]'s resources and a columnar
//! flow arena alive across solves, so a caller that re-solves under churn
//! (jobs arriving and completing, weights drifting) pays only for the delta
//! instead of rebuilding paths and resource tables every call:
//!
//! - [`SolveSession::add_flows`] / [`SolveSession::remove_flows`] /
//!   [`SolveSession::update_weight`] edit the resident flow set in place.
//! - Fixed points are memoized per *connected component* of the
//!   flow–resource coupling graph (see the `maxmin` module docs), under a
//!   deterministic signature — a 128-bit hash of the component's live
//!   flows' paths, caps, and weights in solve order, deliberately blind to
//!   flow identity, so a recurring workload shape (the same checkpoint wave
//!   appearing with fresh [`FlowId`]s every period) warm-starts from its
//!   previous fixed point instead of re-running the water-filling.
//!
//! # Component-scoped warm starts
//!
//! The session keeps the component index incrementally — resources union
//! on every add, and a remove marks the index for a lazy rebuild at the
//! next solve — so churn on one job invalidates only that job's component:
//! every untouched component replays its memoized fixed point and only the
//! touched ones re-run the water-filling, one after another in component
//! order. That turns a checkpoint storm's per-event cost from O(total
//! flows) into O(touched component). On the `component_scale` storm a
//! whole-set signature executed 6.4× the rounds of per-component ones.
//!
//! # Bitwise contract
//!
//! Session results are **bit-identical** to a from-scratch
//! [`MaxMinProblem::solve`] over the same active flows in session order.
//! Two mechanisms guarantee this. Cold solves run the *same* columnar core
//! ([`MaxMinProblem`]'s internal `solve_view`) that `solve` itself runs, so
//! the float-operation sequence is identical by construction. Cache hits
//! replay a fixed point that was itself produced by that core for an
//! identical active set. The session never extrapolates a stale fixed point
//! numerically — that would converge to the same allocation but through
//! different roundoff, breaking the differential oracle.

use std::collections::BTreeMap;

use crate::maxmin::{
    FlowColumns, FlowSpec, FlowsView, MaxMinProblem, ResourceUnionFind, SolveStats,
};

/// Handle to a flow added to a [`SolveSession`]. Never reused within a
/// session, even after the flow is removed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FlowId(u32);

impl FlowId {
    /// The arena slot behind this id (stable for the session's lifetime).
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Event counters for one [`SolveSession`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// Calls to [`SolveSession::solve`].
    pub solves: u64,
    /// Solves answered entirely from the memo without running the core
    /// (every live component hit).
    pub cache_hits: u64,
    /// Solves that ran the water-filling core on at least one component
    /// (and populated the memo).
    pub cache_misses: u64,
    /// Event-loop rounds skipped by cache hits (the rounds the memoized
    /// solve originally cost, counted once per replay).
    pub rounds_saved: u64,
    /// Event-loop rounds actually executed by cold solves.
    pub rounds_executed: u64,
    /// Components re-solved cold.
    pub components_resolved: u64,
    /// Components replayed from the memo.
    pub components_skipped: u64,
    /// Memo entries evicted by the oldest-half policy.
    pub memo_evictions: u64,
}

/// A memoized fixed point: per-member rates of one component's flows, in
/// solve order, plus what the solve originally cost
/// and when the entry was inserted (for age-ordered eviction).
#[derive(Debug, Clone)]
struct MemoEntry {
    live_rates: Vec<f64>,
    rounds: u64,
    epoch: u64,
}

/// Bound on memoized fixed points; on overflow the oldest half (by
/// insertion epoch) is evicted — deterministic, and recent entries (the
/// workload shapes still recurring) survive, unlike a whole-map clear.
const MEMO_CAP: usize = 1024;

/// An incremental max-min solving session. See the [module docs](self).
#[derive(Debug, Clone)]
pub struct SolveSession {
    problem: MaxMinProblem,
    /// Flow arena. `cols.ids` is the *active* slot list, kept ascending;
    /// the other columns are indexed by slot and never shrink.
    cols: FlowColumns,
    /// Per-slot: dead on arrival (exhausted resource on the path or zero
    /// cap). Capacities are fixed per session, so this never changes.
    prefrozen: Vec<bool>,
    memo: BTreeMap<(u64, u64), MemoEntry>,
    /// Insertion clock for memo entries; drives oldest-half eviction.
    next_epoch: u64,
    /// Incremental component index over resources: unioned on every add;
    /// a remove only marks `rebuild_pending` (a stale index is merely
    /// coarser — still a correct partition — so rebuilding can wait for
    /// the next solve).
    uf: ResourceUnionFind,
    rebuild_pending: bool,
    stats: SessionStats,
    /// Rates of the last [`SolveSession::solve`], aligned with
    /// `last_active`.
    last_rates: Vec<f64>,
    last_active: Vec<u32>,
}

/// Fold a `u64` into an FNV-1a hash, byte by byte.
fn fnv1a(mut h: u64, v: u64) -> u64 {
    for b in v.to_le_bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
    }
    h
}

impl SolveSession {
    /// Start a session over a built problem. The resource set is fixed for
    /// the session's lifetime; flows come and go through the delta API.
    pub fn new(problem: MaxMinProblem) -> Self {
        let mut cols = FlowColumns::default();
        cols.path_off.push(0);
        let uf = ResourceUnionFind::new(problem.resources());
        SolveSession {
            problem,
            cols,
            prefrozen: Vec::new(),
            memo: BTreeMap::new(),
            next_epoch: 0,
            uf,
            rebuild_pending: false,
            stats: SessionStats::default(),
            last_rates: Vec::new(),
            last_active: Vec::new(),
        }
    }

    /// The underlying problem (resources and capacities).
    pub fn problem(&self) -> &MaxMinProblem {
        &self.problem
    }

    /// Number of currently active flows.
    pub fn active_len(&self) -> usize {
        self.cols.ids.len()
    }

    /// Active flow ids in solve order (ascending).
    pub fn active_flows(&self) -> Vec<FlowId> {
        self.cols.ids.iter().map(|&s| FlowId(s)).collect()
    }

    /// Whether `id` is currently active.
    pub fn is_active(&self, id: FlowId) -> bool {
        self.cols.ids.binary_search(&id.0).is_ok()
    }

    /// Session event counters.
    pub fn stats(&self) -> &SessionStats {
        &self.stats
    }

    /// Add one flow; returns its handle.
    pub fn add_flow(&mut self, spec: &FlowSpec) -> FlowId {
        let slot = self.cols.cap.len() as u32;
        let n_res = self.problem.resources();
        assert!(
            !spec.resources.is_empty() || spec.cap.is_some(),
            "flow {slot} has no resources and no cap: unbounded"
        );
        assert!(
            spec.weight > 0.0 && spec.weight.is_finite(),
            "flow {slot} has non-positive weight {}",
            spec.weight
        );
        for r in &spec.resources {
            assert!(r.0 < n_res, "flow {slot} references unknown resource {r:?}");
            self.cols.path_res.push(r.0 as u32);
        }
        self.cols.path_off.push(self.cols.path_res.len() as u32);
        let cap = spec.cap.unwrap_or(f64::INFINITY);
        self.cols.cap.push(cap);
        self.cols.weight.push(spec.weight);
        let path_slice = {
            let lo = self.cols.path_off[slot as usize] as usize;
            let hi = self.cols.path_off[slot as usize + 1] as usize;
            &self.cols.path_res[lo..hi]
        };
        let prefrozen = self.problem.prefrozen_path(path_slice, cap);
        if !prefrozen {
            // A live flow couples every resource on its path into one
            // component: union eagerly, the index only ever gets finer at
            // the lazy rebuild.
            self.uf.union_path(path_slice);
        }
        self.prefrozen.push(prefrozen);
        // Slots grow monotonically, so pushing keeps `ids` ascending.
        self.cols.ids.push(slot);
        FlowId(slot)
    }

    /// Add a batch of flows; handles are returned in argument order.
    pub fn add_flows(&mut self, specs: &[FlowSpec]) -> Vec<FlowId> {
        specs.iter().map(|s| self.add_flow(s)).collect()
    }

    /// Remove an active flow. Panics if `id` is not active.
    pub fn remove_flow(&mut self, id: FlowId) {
        let pos = self
            .cols
            .ids
            .binary_search(&id.0)
            .unwrap_or_else(|_| panic!("flow {id:?} is not active"));
        self.cols.ids.remove(pos);
        // The departed flow may have been the only bridge between resource
        // groups. Don't recompute now — a coarse index is still a correct
        // partition — just mark the index for rebuild at the next solve.
        if !self.prefrozen[id.index()] {
            self.rebuild_pending = true;
        }
    }

    /// Remove a batch of active flows.
    pub fn remove_flows(&mut self, ids: &[FlowId]) {
        for &id in ids {
            self.remove_flow(id);
        }
    }

    /// Change the class weight of an active flow. Panics if `id` is not
    /// active or the weight is not positive and finite.
    pub fn update_weight(&mut self, id: FlowId, weight: f64) {
        assert!(self.is_active(id), "flow {id:?} is not active");
        assert!(
            weight > 0.0 && weight.is_finite(),
            "flow {id:?} given non-positive weight {weight}"
        );
        self.cols.weight[id.index()] = weight;
    }

    /// Fold one slot's path, cap bits, and weight bits into both hashes.
    fn sig_fold(&self, h: &mut (u64, u64), slot: usize) {
        let lo = self.cols.path_off[slot] as usize;
        let hi = self.cols.path_off[slot + 1] as usize;
        let fields = std::iter::once((hi - lo) as u64)
            .chain(self.cols.path_res[lo..hi].iter().map(|&r| u64::from(r)))
            .chain([
                self.cols.cap[slot].to_bits(),
                self.cols.weight[slot].to_bits(),
            ]);
        for v in fields {
            h.0 = fnv1a(h.0, v);
            h.1 = fnv1a(h.1, v);
        }
    }

    /// Per-component signature: two independent FNV-1a-64 passes (different
    /// offset bases) over one component's members (view positions into
    /// `cols.ids`, ascending) — their paths, cap bits, and weight bits, in
    /// solve order. Slot ids are deliberately excluded so identical
    /// component shapes on identical resources re-appearing with fresh ids
    /// still hit the memo; prefrozen flows are excluded because their rate
    /// is always exactly 0.
    fn group_signature(&self, members: &[u32]) -> (u64, u64) {
        let mut h = (0xcbf2_9ce4_8422_2325u64, 0x9ae1_6a3b_2f90_404fu64);
        for &k in members {
            let s = self.cols.ids[k as usize] as usize;
            if !self.prefrozen[s] {
                self.sig_fold(&mut h, s);
            }
        }
        h
    }

    /// Insert a memoized fixed point, evicting the oldest half (by
    /// insertion epoch) when the memo is full.
    fn memo_insert(&mut self, sig: (u64, u64), live_rates: Vec<f64>, rounds: u64) {
        if self.memo.len() >= MEMO_CAP {
            let mut by_epoch: Vec<((u64, u64), u64)> =
                self.memo.iter().map(|(k, e)| (*k, e.epoch)).collect();
            by_epoch.sort_unstable_by_key(|&(_, epoch)| epoch);
            let evict = by_epoch.len() / 2;
            for (k, _) in by_epoch.into_iter().take(evict) {
                self.memo.remove(&k);
            }
            self.stats.memo_evictions += evict as u64;
            if spider_obs::enabled() {
                spider_obs::counter_add("maxmin_memo_evictions", evict as u64);
            }
        }
        let epoch = self.next_epoch;
        self.next_epoch += 1;
        self.memo.insert(
            sig,
            MemoEntry {
                live_rates,
                rounds,
                epoch,
            },
        );
    }

    /// Rebuild the component index from the live active flows (called
    /// lazily once a remove has potentially split a component).
    fn rebuild_index(&mut self) {
        self.uf = ResourceUnionFind::new(self.problem.resources());
        for &s in &self.cols.ids {
            let s = s as usize;
            if !self.prefrozen[s] {
                let lo = self.cols.path_off[s] as usize;
                let hi = self.cols.path_off[s + 1] as usize;
                self.uf.union_path(&self.cols.path_res[lo..hi]);
            }
        }
        self.rebuild_pending = false;
    }

    /// Connected components of the active flow set: groups of [`FlowId`]s,
    /// each ascending, groups ordered by smallest member. Rebuilds the
    /// index first if a remove left it stale.
    pub fn components(&mut self) -> Vec<Vec<FlowId>> {
        if self.rebuild_pending {
            self.rebuild_index();
        }
        let groups = self
            .problem
            .group_by_component(&self.cols.view(), &mut self.uf);
        groups
            .iter()
            .map(|g| {
                g.iter()
                    .map(|&k| FlowId(self.cols.ids[k as usize]))
                    .collect()
            })
            .collect()
    }

    /// Solve for the max-min fair per-member rates of the active flows, in
    /// solve order (ascending [`FlowId`]). Bit-identical to
    /// [`MaxMinProblem::solve`] over the same flows in the same order.
    ///
    /// One signature per component: every component that hits the memo
    /// replays its fixed point; the ones that miss re-solve one after
    /// another, in component order.
    pub fn solve(&mut self) -> &[f64] {
        self.stats.solves += 1;
        if self.rebuild_pending {
            self.rebuild_index();
        }
        let groups = self
            .problem
            .group_by_component(&self.cols.view(), &mut self.uf);

        // Look every component up before inserting anything, so a solve's
        // hits never depend on the entries (or evictions) of its own misses.
        self.last_rates.clear();
        self.last_rates.resize(self.cols.ids.len(), 0.0);
        let mut missing: Vec<(usize, (u64, u64))> = Vec::new();
        let mut skipped = 0u64;
        let mut saved_rounds = 0u64;
        for (gi, members) in groups.iter().enumerate() {
            // Prefrozen flows are singleton components with rate exactly 0:
            // nothing to solve, nothing worth memoizing.
            if members
                .iter()
                .all(|&k| self.prefrozen[self.cols.ids[k as usize] as usize])
            {
                continue;
            }
            let sig = self.group_signature(members);
            if let Some(entry) = self.memo.get(&sig) {
                skipped += 1;
                saved_rounds += entry.rounds;
                for (&k, &r) in members.iter().zip(&entry.live_rates) {
                    self.last_rates[k as usize] = r;
                }
            } else {
                missing.push((gi, sig));
            }
        }
        let resolved = missing.len() as u64;
        let mut total = SolveStats::default();
        let mut ids: Vec<u32> = Vec::new();
        for (gi, sig) in missing {
            let members = &groups[gi];
            ids.clear();
            ids.extend(members.iter().map(|&k| self.cols.ids[k as usize]));
            let sub = FlowsView {
                ids: &ids,
                ..self.cols.view()
            };
            let mut st = SolveStats::default();
            let rates = self.problem.solve_view(&sub, &mut st, false);
            for (&k, &r) in members.iter().zip(&rates) {
                self.last_rates[k as usize] = r;
            }
            total.flows += st.flows;
            total.prefrozen += st.prefrozen;
            total.rounds += st.rounds;
            total.cap_freezes += st.cap_freezes;
            total.saturation_freezes += st.saturation_freezes;
            total.heap_pushes += st.heap_pushes;
            total.heap_pops += st.heap_pops;
            total.stale_discards += st.stale_discards;
            self.memo_insert(sig, rates, st.rounds);
        }
        self.stats.components_skipped += skipped;
        self.stats.components_resolved += resolved;
        self.stats.rounds_saved += saved_rounds;
        self.stats.rounds_executed += total.rounds;
        if resolved == 0 {
            self.stats.cache_hits += 1;
        } else {
            self.stats.cache_misses += 1;
        }
        if spider_obs::enabled() {
            if resolved > 0 {
                total.components = groups.len() as u64;
                total.largest_component = groups.iter().map(Vec::len).max().unwrap_or(0) as u64;
                total.flush_obs();
            }
            spider_obs::counter_add("maxmin_components_skipped", skipped);
            spider_obs::counter_add("maxmin_components_resolved", resolved);
            if resolved == 0 {
                spider_obs::counter_add("maxmin_cache_hits", 1);
                spider_obs::counter_add("maxmin_warm_rounds_saved", saved_rounds);
            } else {
                spider_obs::counter_add("maxmin_cache_misses", 1);
            }
        }
        self.last_active.clear();
        self.last_active.extend_from_slice(&self.cols.ids);
        &self.last_rates
    }

    /// Per-member rates from the last [`Self::solve`], in solve order.
    /// Empty before the first solve.
    pub fn rates(&self) -> &[f64] {
        &self.last_rates
    }

    /// Rate of `id` in the last solve, or `None` if it was not active then.
    pub fn rate_of(&self, id: FlowId) -> Option<f64> {
        self.last_active
            .binary_search(&id.0)
            .ok()
            .map(|pos| self.last_rates[pos])
    }
}

impl spider_simkit::MemFootprint for SolveSession {
    fn mem_bytes(&self) -> u64 {
        use spider_simkit::slab_bytes;
        // BTreeMap nodes are opaque to capacity-based accounting; charge the
        // memo at its entry payloads (keys + fixed point vectors), which is
        // where the bytes actually are at scale.
        let memo: u64 = self
            .memo
            .values()
            .map(|e| 16 + std::mem::size_of::<MemoEntry>() as u64 + e.live_rates.mem_bytes())
            .sum();
        self.problem.mem_bytes()
            + self.cols.mem_bytes()
            + self.uf.mem_bytes()
            + slab_bytes::<bool>(self.prefrozen.capacity())
            + slab_bytes::<f64>(self.last_rates.capacity())
            + slab_bytes::<u32>(self.last_active.capacity())
            + memo
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::maxmin::ResourceId;

    /// Specs of the session's active flows, for the from-scratch oracle.
    fn active_specs(sess: &SolveSession, all: &[FlowSpec], ids: &[FlowId]) -> Vec<FlowSpec> {
        sess.active_flows()
            .iter()
            .map(|id| {
                let k = ids.iter().position(|i| i == id).expect("known id");
                all[k].clone()
            })
            .collect()
    }

    fn bits(rates: &[f64]) -> Vec<u64> {
        rates.iter().map(|r| r.to_bits()).collect()
    }

    #[test]
    fn cold_solve_matches_from_scratch_bitwise() {
        let mut p = MaxMinProblem::new();
        let l1 = p.add_resource(1.0);
        let l2 = p.add_resource(10.0);
        let specs = vec![
            FlowSpec::new(vec![l1, l2]),
            FlowSpec::new(vec![l1]).with_weight(3.0),
            FlowSpec::new(vec![l2]).with_cap(0.25),
        ];
        let oracle = p.solve(&specs);
        let mut sess = SolveSession::new(p);
        sess.add_flows(&specs);
        assert_eq!(bits(sess.solve()), bits(&oracle));
    }

    #[test]
    fn removal_and_update_track_from_scratch_bitwise() {
        let mut p = MaxMinProblem::new();
        let rs: Vec<ResourceId> = (0..6).map(|i| p.add_resource(2.0 + i as f64)).collect();
        let specs: Vec<FlowSpec> = (0..12)
            .map(|i| {
                FlowSpec::new(vec![rs[i % 6], rs[(i * 5 + 1) % 6]]).with_weight(1.0 + i as f64)
            })
            .collect();
        let mut sess = SolveSession::new(p.clone());
        let ids = sess.add_flows(&specs);
        sess.solve();

        sess.remove_flows(&[ids[1], ids[7]]);
        sess.update_weight(ids[4], 9.5);
        let mut all = specs.clone();
        all[4].weight = 9.5;
        let oracle = p.solve(&active_specs(&sess, &all, &ids));
        assert_eq!(bits(sess.solve()), bits(&oracle));
        assert!(!sess.is_active(ids[1]));
        assert!(sess.is_active(ids[4]));
    }

    #[test]
    fn identical_shape_with_fresh_ids_hits_the_memo() {
        let mut p = MaxMinProblem::new();
        let r = p.add_resource(12.0);
        let wave = vec![
            FlowSpec::new(vec![r]).with_weight(4.0),
            FlowSpec::new(vec![r]).with_cap(1.5),
        ];
        let mut sess = SolveSession::new(p);
        let gen1 = sess.add_flows(&wave);
        let first = bits(sess.solve());
        sess.remove_flows(&gen1);
        let gen2 = sess.add_flows(&wave);
        let second = bits(sess.solve());
        assert_eq!(first, second);
        assert_eq!(sess.stats().cache_hits, 1);
        assert_eq!(sess.stats().cache_misses, 1);
        assert!(sess.stats().rounds_saved >= 1);
        assert_ne!(gen1, gen2, "ids are never reused");
    }

    #[test]
    fn prefrozen_flows_do_not_disturb_the_signature() {
        let mut p = MaxMinProblem::new();
        let dead = p.add_resource(0.0);
        let live = p.add_resource(5.0);
        let mut sess = SolveSession::new(p);
        let a = sess.add_flow(&FlowSpec::new(vec![live]));
        sess.solve();
        // A dead flow joins: the active set changed but the signature (and
        // so the memo) must not — the extra flow's rate is exactly 0.
        let b = sess.add_flow(&FlowSpec::new(vec![dead, live]));
        let rates = sess.solve().to_vec();
        assert_eq!(sess.stats().cache_hits, 1);
        assert_eq!(rates, vec![5.0, 0.0]);
        assert_eq!(sess.rate_of(a), Some(5.0));
        assert_eq!(sess.rate_of(b), Some(0.0));
    }

    #[test]
    fn rate_of_reflects_the_last_solve_only() {
        let mut p = MaxMinProblem::new();
        let r = p.add_resource(4.0);
        let mut sess = SolveSession::new(p);
        let a = sess.add_flow(&FlowSpec::new(vec![r]));
        assert_eq!(sess.rate_of(a), None, "before any solve");
        sess.solve();
        assert_eq!(sess.rate_of(a), Some(4.0));
        let b = sess.add_flow(&FlowSpec::new(vec![r]));
        assert_eq!(sess.rate_of(b), None, "added after the last solve");
        sess.solve();
        assert_eq!(sess.rate_of(b), Some(2.0));
    }

    #[test]
    fn randomized_churn_differential_bitwise() {
        let mut rng = spider_simkit::SimRng::seed_from_u64(11);
        let mut p = MaxMinProblem::new();
        let rs: Vec<ResourceId> = (0..8)
            .map(|_| p.add_resource(rng.range_f64(0.5, 40.0)))
            .collect();
        let mut sess = SolveSession::new(p.clone());
        let mut live: Vec<(FlowId, FlowSpec)> = Vec::new();
        for _ in 0..120 {
            match rng.index(4) {
                0 | 1 => {
                    let k = 1 + rng.index(3);
                    let path: Vec<ResourceId> = (0..k).map(|_| rs[rng.index(rs.len())]).collect();
                    let mut f = FlowSpec::new(path);
                    if rng.chance(0.4) {
                        f = f.with_cap(rng.range_f64(0.05, 8.0));
                    }
                    if rng.chance(0.4) {
                        f = f.with_weight(rng.range_f64(0.5, 16.0));
                    }
                    let id = sess.add_flow(&f);
                    live.push((id, f));
                }
                2 if !live.is_empty() => {
                    let (id, _) = live.remove(rng.index(live.len()));
                    sess.remove_flow(id);
                }
                3 if !live.is_empty() => {
                    let j = rng.index(live.len());
                    let w = rng.range_f64(0.5, 16.0);
                    sess.update_weight(live[j].0, w);
                    live[j].1.weight = w;
                }
                _ => {}
            }
            // Oracle expects solve order: ascending FlowId.
            live.sort_by_key(|(id, _)| *id);
            let specs: Vec<FlowSpec> = live.iter().map(|(_, f)| f.clone()).collect();
            assert_eq!(bits(sess.solve()), bits(&p.solve(&specs)));
        }
        assert!(sess.stats().cache_misses > 0);
    }

    #[test]
    fn churn_resolves_only_the_touched_component() {
        // Two independent router zones; churning a job in zone B must
        // replay zone A's fixed point from the memo, not re-solve it.
        let mut p = MaxMinProblem::new();
        let a = p.add_resource(10.0);
        let b = p.add_resource(20.0);
        let mut sess = SolveSession::new(p);
        for _ in 0..4 {
            sess.add_flow(&FlowSpec::new(vec![a]));
            sess.add_flow(&FlowSpec::new(vec![b]));
        }
        sess.solve();
        assert_eq!(sess.stats().components_resolved, 2);
        let churned = sess.add_flow(&FlowSpec::new(vec![b]).with_weight(2.0));
        sess.solve();
        // Zone A hit the memo; only zone B re-solved.
        assert_eq!(sess.stats().components_resolved, 3);
        assert_eq!(sess.stats().components_skipped, 1);
        sess.remove_flow(churned);
        sess.solve();
        // Back to the original shape: both components replay.
        assert_eq!(sess.stats().components_resolved, 3);
        assert_eq!(sess.stats().components_skipped, 3);
        assert_eq!(
            sess.components(),
            vec![
                sess.active_flows()
                    .iter()
                    .copied()
                    .step_by(2)
                    .collect::<Vec<_>>(),
                sess.active_flows()
                    .iter()
                    .copied()
                    .skip(1)
                    .step_by(2)
                    .collect::<Vec<_>>(),
            ]
        );
    }

    #[test]
    fn removal_splits_components_after_lazy_rebuild() {
        let mut p = MaxMinProblem::new();
        let a = p.add_resource(4.0);
        let b = p.add_resource(6.0);
        let mut sess = SolveSession::new(p);
        let fa = sess.add_flow(&FlowSpec::new(vec![a]));
        let fb = sess.add_flow(&FlowSpec::new(vec![b]));
        let bridge = sess.add_flow(&FlowSpec::new(vec![a, b]));
        assert_eq!(sess.components().len(), 1, "bridge couples a and b");
        sess.remove_flow(bridge);
        assert_eq!(
            sess.components(),
            vec![vec![fa], vec![fb]],
            "lazy rebuild splits the zones once the bridge departs"
        );
    }

    #[test]
    fn memo_eviction_drops_the_oldest_half_deterministically() {
        let mut p = MaxMinProblem::new();
        let r = p.add_resource(100.0);
        let mut sess = SolveSession::new(p.clone());
        // 1025 distinct single-flow shapes (distinct weights): the 1025th
        // insert evicts the oldest 512 entries.
        let solve_shape = |sess: &mut SolveSession, w: f64| {
            let id = sess.add_flow(&FlowSpec::new(vec![r]).with_weight(w));
            sess.solve();
            sess.remove_flow(id);
        };
        for i in 0..1024 {
            solve_shape(&mut sess, 1.0 + i as f64);
        }
        assert_eq!(sess.stats().memo_evictions, 0);
        solve_shape(&mut sess, 5000.0);
        assert_eq!(sess.stats().memo_evictions, 512);
        let misses_before = sess.stats().cache_misses;
        // A recent shape survived the eviction...
        solve_shape(&mut sess, 1.0 + 1023.0);
        assert_eq!(sess.stats().cache_misses, misses_before);
        // ...while the very first (oldest) shape was evicted.
        solve_shape(&mut sess, 1.0);
        assert_eq!(sess.stats().cache_misses, misses_before + 1);
    }

    #[test]
    #[should_panic(expected = "is not active")]
    fn removing_a_removed_flow_panics() {
        let mut p = MaxMinProblem::new();
        let r = p.add_resource(1.0);
        let mut sess = SolveSession::new(p);
        let id = sess.add_flow(&FlowSpec::new(vec![r]));
        sess.remove_flow(id);
        sess.remove_flow(id);
    }

    #[test]
    #[should_panic(expected = "unbounded")]
    fn unbounded_flow_rejected_at_add_time() {
        let p = MaxMinProblem::new();
        let mut sess = SolveSession::new(p);
        sess.add_flow(&FlowSpec::new(vec![]));
    }
}
