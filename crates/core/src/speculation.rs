//! GS (Greedy Speculative) and RAS (Resource Aware Speculative) scheduling,
//! implemented after Pseudocode 1 (deadline-bound jobs) and Pseudocode 2 (error-bound
//! jobs) of the paper.
//!
//! Both algorithms run in two stages:
//!
//! 1. **Pruning** — drop tasks that cannot help: tasks whose fresh copy would miss the
//!    deadline (deadline-bound), tasks outside the earliest `(1 − ε)` set (error-bound),
//!    running tasks whose speculative copy would not beat the running copy (GS) or
//!    would not save resources (RAS).
//! 2. **Selection** — GS picks the candidate that improves the approximation goal
//!    soonest (lowest `tnew` for deadlines — SJF; largest remaining work for error
//!    bounds — LJF). RAS picks the speculation with the largest resource saving
//!    `c·trem − (c+1)·tnew`, and otherwise falls back to the same default ordering of
//!    unscheduled tasks ("at default, both algorithms schedule the task with the
//!    lowest `tnew` / highest `trem`").

use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

use serde::{Deserialize, Serialize};

use crate::job::{total_order, Bound, DeadlineIndex, JobSpec, JobView, TnewEstimate};
use crate::policy::{Action, BoxedPolicy, PolicyFactory, SpeculationPolicy};
use crate::task::{JobId, TaskId, TaskView};

/// Which of the two building-block algorithms to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SpeculationMode {
    /// Greedy Speculative scheduling (`OC = 0` in the pseudocode).
    Gs,
    /// Resource Aware Speculative scheduling (`OC = 1`).
    Ras,
}

impl SpeculationMode {
    /// Policy name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            SpeculationMode::Gs => "GS",
            SpeculationMode::Ras => "RAS",
        }
    }
}

/// Upper limit on concurrently running copies of a single task. Guideline 1 of the
/// paper shows ≤ 2 copies is optimal during early waves; we allow one more in the
/// final wave where aggressive speculation is called for, and cap there to avoid
/// pathological duplication when estimates are badly wrong.
pub const MAX_COPIES_PER_TASK: u32 = 3;

/// Choose the next action for a job under GS or RAS, keeping no state between calls.
///
/// The oracle baseline (which feeds ground-truth estimates through the same logic)
/// and tests call this. The per-job policies, [`GsPolicy`], [`RasPolicy`] and GRASS
/// (which alternates between the two modes), make the same decisions through a
/// memoised entry that remembers where the job's error-bound needed set ended; this
/// entry passes it an empty memo, so every error-bound decision selects the needed
/// set afresh. Both return the same action for the same view.
pub fn choose(view: &JobView, mode: SpeculationMode) -> Option<Action> {
    choose_memoised(view, mode, &mut NeededSetMemo::default())
}

/// [`choose`], checking and updating `memo`, the needed-set memo of the job `view`
/// belongs to. The memo only saves work: the action equals [`choose`]'s for any memo.
pub(crate) fn choose_memoised(
    view: &JobView,
    mode: SpeculationMode,
    memo: &mut NeededSetMemo,
) -> Option<Action> {
    match view.bound {
        Bound::Deadline(_) => choose_deadline(view, mode),
        Bound::Error(_) => choose_error(view, mode, memo),
    }
}

/// Pseudocode 1: deadline-bound jobs.
///
/// Pruning and selection read the view's [`DeadlineIndex`], built into the view's
/// cell at the job's first decision (or built from the rows for this decision when
/// the view carries no cell, or a cell holding the other estimate kind's index): the
/// front of the fresh order and every running row, not every row. The picks are the
/// ones `min_by` / `max_by` over the pruned candidates in task-id order make: SJF
/// keeps the *first* minimum `tnew`, and RAS keeps the *last* maximum saving. So a tie
/// goes to the lower task id under SJF and to the higher one under RAS, whatever the
/// order of the rows.
///
/// * **Fresh pick.** The walk down the fresh order keeps the least (`tnew`, task id)
///   by [`f64::total_cmp`]. Key order is not `tnew` order (two keys an ulp apart can
///   round to `tnew`s in the other order), so the walk stops only at the first row
///   whose [`tnew_floor`](TnewEstimate::tnew_floor) exceeds the best `tnew` so far;
///   the floor never decreases along the order, so no later row can win.
/// * **Admission** is one test on that pick: a copy launched now must be expected to
///   finish before the deadline. If the least `tnew` exceeds the remaining deadline,
///   so does every fresh row's, which is the per-row skip of the pseudocode.
/// * **Speculative pick.** The running rows by task id, each with the per-row tests:
///   eligibility, admission, the copy cap, then GS's `tnew < trem` or RAS's positive
///   saving.
fn choose_deadline(view: &JobView, mode: SpeculationMode) -> Option<Action> {
    let remaining = view.remaining_deadline().unwrap_or(f64::INFINITY);
    if remaining <= 0.0 {
        return None;
    }
    let build = || DeadlineIndex::build(view.tasks, view.tnew_estimate);
    let built;
    let index = match view.deadline_index.map(|cell| cell.get_or_init(build)) {
        Some(index) if index.is_for(view.tnew_estimate) => index,
        _ => {
            built = build();
            &built
        }
    };

    // The best fresh task by `tnew`, and the best admissible speculative copy by
    // `tnew` (GS) or by resource saving (RAS), each with the value it ranks by.
    let estimate = view.tnew_estimate;
    let mut fresh: Option<(f64, &TaskView)> = None;
    for t in index.fresh_rows(view.tasks) {
        if fresh.is_some_and(|(best, _)| estimate.tnew_floor(estimate.tnew_key(t)) > best) {
            break;
        }
        let tnew = view.tnew(t);
        if fresh.is_none_or(|(best, f)| tnew.total_cmp(&best).then(t.id.cmp(&f.id)).is_lt()) {
            fresh = Some((tnew, t));
        }
    }
    let fresh = fresh.filter(|&(tnew, _)| tnew <= remaining);
    let mut speculative: Option<(f64, &TaskView)> = None;
    for t in index.running_rows(view.tasks) {
        let tnew = view.tnew(t);
        if !t.eligible || tnew > remaining || t.running_copies >= MAX_COPIES_PER_TASK {
            continue;
        }
        let trem = view.trem(t);
        match mode {
            SpeculationMode::Gs => {
                if t.new_copy_beats_running(trem, tnew)
                    && speculative.is_none_or(|(best, _)| tnew.total_cmp(&best).is_lt())
                {
                    speculative = Some((tnew, t));
                }
            }
            SpeculationMode::Ras => {
                if let Some(saving) = t.speculation_saving(trem, tnew).filter(|s| *s > 0.0) {
                    if speculative.is_none_or(|(best, _)| saving.total_cmp(&best).is_ge()) {
                        speculative = Some((saving, t));
                    }
                }
            }
        }
    }

    // Selection. GS runs SJF over the union of fresh tasks and admissible
    // speculative copies: schedule whatever finishes soonest. RAS speculates only
    // when that frees resources; then it is a strict win and takes priority
    // (Figure 1, right). Otherwise both launch the shortest fresh task that fits
    // the deadline.
    let prefer_copy = match (mode, fresh, speculative) {
        (SpeculationMode::Gs, Some((f_tnew, _)), Some((s_tnew, _))) => s_tnew < f_tnew,
        (_, _, s) => s.is_some(),
    };
    if prefer_copy {
        speculative.map(|(_, s)| Action::speculate(s.id))
    } else {
        fresh.map(|(_, f)| Action::launch(f.id))
    }
}

/// Pseudocode 2: error-bound jobs.
///
/// The candidates are the earliest `still_needed` unfinished *input* tasks by
/// effective duration, which will make up the (1 − ε) result, plus every eligible
/// non-input task (intermediate stages must run in full for the completed
/// fraction). Only the needed *set* matters, and the picks below depend only on it,
/// not on the order its rows are offered in.
fn choose_error(view: &JobView, mode: SpeculationMode, memo: &mut NeededSetMemo) -> Option<Action> {
    let stamp = Stamp::of(view, mode);
    let repeat = memo.stamp == Some(stamp);
    let keep = match repeat.then(|| memo.serve_repeat(view, mode)).flatten() {
        Some(true) => return memo.answer(stamp, mode),
        // A list ran dry: a pass inside an instant keeps twice what the previous
        // one kept, so a run of decisions at one instant costs O(log run) passes.
        Some(false) => (memo.picks.fresh.keep * 2).min(view.tasks.len().max(FIRST_KEEP)),
        None => FIRST_KEEP,
    };
    memo.pass(view, mode, keep);
    memo.answer(stamp, mode)
}

/// Whether Pseudocode 2 ranks `t` by effective duration: an eligible input task.
fn needed_candidate(t: &TaskView) -> bool {
    t.eligible && t.stage.is_input()
}

/// A row's position in Pseudocode 2's walk: the needed input tasks sorted by
/// `(effective duration, task id)`, then every eligible non-input task by task id.
/// Packed into one integer with that order, most significant first: the non-input
/// flag (bit 96), the [`f64::total_cmp`] order of the effective duration (bits
/// 32–95; non-input rows pass 0), and the task id (bits 0–31). The id makes every
/// row's key distinct, and the walk independent of the order of the rows.
fn walk_key(non_input: bool, effective: f64, id: TaskId) -> u128 {
    u128::from(non_input) << 96 | u128::from(total_order(effective)) << 32 | u128::from(id.0)
}

/// The task id packed into a [`walk_key`].
fn key_task(key: u128) -> TaskId {
    TaskId(key as u32)
}

/// An eligible input row's walk key.
fn input_key(view: &JobView, t: &TaskView) -> u128 {
    let (tnew, trem) = (view.tnew(t), view.trem(t));
    walk_key(false, t.effective_duration(trem, tnew), t.id)
}

/// How many candidates of each kind the first pass at an instant keeps.
const FIRST_KEEP: usize = 2;

/// One job's error-bound memo: where its needed set ended, and the candidates its
/// last decision ranked.
///
/// **The needed set's boundary.** The task whose walk position was the
/// `still_needed`-th smallest at the last pass, i.e. the needed set's last row.
/// Between two passes that boundary rarely moves, so a pass re-keys that task at its
/// own `now` and per-work estimate and counts, in one walk, the rows at or below it.
/// If they number exactly `still_needed` they are the needed set, because walk keys
/// are distinct. Otherwise the pass selects the set and stores its new boundary.
///
/// **Repeat decisions within one instant.** A pass keeps the best few candidates of
/// each kind ([`RunnerUps`]), and the memo stamps them with the instant ([`Stamp`])
/// and the answer they gave. The simulator decides again every time a slot frees, so
/// an arrival or a finish that frees many slots asks the same job many times at one
/// instant, each time with one more copy of the task it last named. A repeat decision
/// at the stamped instant checks that the previous answer's task has exactly one more
/// copy, pops that answer, re-derives the task's row and offers it again, then reads
/// the two fronts. This is exact:
///
/// * within one instant (same `now`, estimate, completed counts and row count) the
///   only row that changed is the one the answer acted on (the third clause of the
///   [`SpeculationPolicy::choose`] contract), and every other row, and so its walk key
///   and the value it ranks by, depends only on `now`, the estimate and its own copies;
/// * an answer never raises its row's effective duration. It only acts on a row whose
///   effective duration is its `tnew`: a fresh row; a running row with `tnew < trem`
///   (GS); or a running row with a positive saving, which implies `trem > tnew`
///   because `trem ≥ 0` (RAS). Afterwards the effective duration is `min(trem', tnew) ≤ tnew`, even when
///   the new best copy's `trem'` is above the old `trem`. So the row keeps its place
///   in the needed set, and the set does not change;
/// * so re-offering that one row keeps both lists exact: each holds the best of its
///   kind, and every candidate outside it ranks below its worst entry. A list that
///   runs empty while candidates remain outside it cannot name its front, and the
///   decision makes a pass.
///
/// A pass forced by a list that ran dry keeps twice as many candidates as the
/// previous one; any other pass keeps [`FIRST_KEEP`] again and frees grown lists. A
/// decline drops the lists. The memo only saves work: a missing, stale or foreign
/// boundary costs one selection, a failed stamp or row check costs one pass, and
/// neither changes an answer.
#[derive(Debug, Default, Clone)]
pub(crate) struct NeededSetMemo {
    boundary: Option<TaskId>,
    /// The instant of the last answer, `None` after a decline.
    stamp: Option<Stamp>,
    /// The last answer, still the front of its list.
    answer: Option<Pick>,
    picks: ErrorPicks,
}

impl NeededSetMemo {
    /// Answer a repeat decision at the stamped instant from the kept lists: `None`
    /// when the view does not show the previous answer applied, otherwise whether
    /// the lists could answer. Either way a pass decides when they could not.
    fn serve_repeat(&mut self, view: &JobView, mode: SpeculationMode) -> Option<bool> {
        let answer = self.answer?;
        let row = view
            .tasks
            .get(answer.id)
            .filter(|t| t.running_copies == answer.copies + 1)?;
        let served = if answer.copies == 0 {
            self.picks.fresh.kept.pop()
        } else {
            self.picks.speculative.kept.pop()
        };
        debug_assert_eq!(served.map(|p| p.key), Some(answer.key));
        let (tnew, trem) = (view.tnew(row), view.trem(row));
        let key = if row.stage.is_input() {
            walk_key(false, row.effective_duration(trem, tnew), answer.id)
        } else {
            answer.key
        };
        debug_assert!(
            key <= answer.key,
            "applying an answer raised its row's effective duration: {row:?}"
        );
        if let Some((list, pick)) = self.picks.candidate(mode, key, row, tnew, trem) {
            list.reoffer(pick);
        }
        Some(self.picks.readable())
    }

    /// Rank every candidate afresh, keeping at least `keep` of each kind.
    fn pass(&mut self, view: &JobView, mode: SpeculationMode, keep: usize) {
        let still_needed = view.input_tasks_still_needed().unwrap_or(usize::MAX);
        self.picks.start(keep);
        if !self
            .picks
            .offer_checked(view, mode, still_needed, self.boundary)
        {
            self.picks.start(keep);
            self.boundary = self.picks.offer_selected(view, mode, still_needed);
        }
        self.picks.fresh.finish();
        self.picks.speculative.finish();
    }

    /// The decision the lists name, stamped with `stamp`; a decline drops the lists.
    fn answer(&mut self, stamp: Stamp, mode: SpeculationMode) -> Option<Action> {
        let Some(pick) = self.picks.best(mode) else {
            self.stamp = None;
            self.answer = None;
            self.picks.start(FIRST_KEEP);
            return None;
        };
        self.stamp = Some(stamp);
        self.answer = Some(pick);
        Some(if pick.copies == 0 {
            Action::launch(pick.id)
        } else {
            Action::speculate(pick.id)
        })
    }
}

/// What every row's walk key and ranking value depend on besides the row itself,
/// and the mode that ranks them (GRASS shares one memo across RAS and GS).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Stamp {
    job: JobId,
    now: u64,
    /// The per-work estimate's bits, `None` for oracle estimates.
    estimate: Option<u64>,
    completed_tasks: usize,
    completed_input_tasks: usize,
    rows: usize,
    mode: SpeculationMode,
}

impl Stamp {
    fn of(view: &JobView, mode: SpeculationMode) -> Self {
        Stamp {
            job: view.job,
            now: view.now.to_bits(),
            estimate: match view.tnew_estimate {
                TnewEstimate::PerWork(per_work) => Some(per_work.to_bits()),
                TnewEstimate::Oracle => None,
            },
            completed_tasks: view.completed_tasks,
            completed_input_tasks: view.completed_input_tasks,
            rows: view.tasks.len(),
            mode,
        }
    }
}

/// A candidate: the value it ranks by, its walk key, its task and that task's
/// running copies when it was offered.
#[derive(Debug, Clone, Copy)]
struct Pick {
    value: f64,
    key: u128,
    id: TaskId,
    copies: u32,
}

/// The order `max_by` over the walk picks by: the largest value and, among equal
/// values, the candidate latest in the walk, which among candidates of one kind of
/// task is the higher task id. Walk keys are distinct, so two picks of different
/// rows never compare equal.
impl Ord for Pick {
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        self.value
            .total_cmp(&other.value)
            .then(self.key.cmp(&other.key))
    }
}

impl PartialOrd for Pick {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Pick {
    #[inline]
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other).is_eq()
    }
}

impl Eq for Pick {}

/// The best candidates of one kind: a pass ranks them, repeat decisions serve them.
///
/// While a pass offers candidates, `ranking` is a min-heap of the best `keep` so far,
/// and once it is full `runner_up` holds its root: the candidate a newcomer must
/// beat. So most offers cost one comparison. The pass's end sorts the heap into
/// `kept`, the best last, and repeat decisions pop from there and re-offer into it.
/// `complete` says that no candidate was dropped, so `kept` holds every candidate.
/// Otherwise every candidate outside `kept` ranks below its first (worst) entry, and
/// a re-offer that ranks below that entry stays outside too.
#[derive(Debug, Default, Clone)]
struct RunnerUps {
    runner_up: Option<Pick>,
    ranking: BinaryHeap<Reverse<Pick>>,
    kept: Vec<Pick>,
    complete: bool,
    /// How many candidates the pass keeps.
    keep: usize,
}

impl RunnerUps {
    /// Start a pass that keeps the best `keep` candidates, freeing lists that a
    /// longer run at an earlier instant grew.
    fn start(&mut self, keep: usize) {
        if self.kept.capacity().max(self.ranking.capacity()) > 2 * keep {
            *self = RunnerUps::default();
        }
        self.runner_up = None;
        self.ranking.clear();
        self.kept.clear();
        self.complete = true;
        self.keep = keep;
    }

    /// Offer a candidate to the pass.
    #[inline]
    fn offer(&mut self, pick: Pick) {
        if self.runner_up.is_some_and(|runner_up| pick < runner_up) {
            self.complete = false;
        } else {
            self.rank(pick);
        }
    }

    /// Put `pick`, which outranks the runner-up if there is one, into the heap.
    /// Out of line, so that the one comparison in [`RunnerUps::offer`] is all a
    /// pass's walk inlines.
    #[inline(never)]
    fn rank(&mut self, pick: Pick) {
        if self.runner_up.is_some() {
            self.complete = false;
            if let Some(mut runner_up) = self.ranking.peek_mut() {
                *runner_up = Reverse(pick);
            }
        } else {
            self.ranking.push(Reverse(pick));
        }
        if self.ranking.len() >= self.keep {
            self.runner_up = self.ranking.peek().map(|root| root.0);
        }
    }

    /// End the pass: sort what it kept into `kept`, the best last.
    fn finish(&mut self) {
        self.kept
            .extend(self.ranking.drain().map(|Reverse(pick)| pick));
        self.kept.sort_unstable();
    }

    /// Offer a candidate to `kept` after the pass, keeping it exact.
    fn reoffer(&mut self, pick: Pick) {
        if !self.complete && self.kept.first().is_none_or(|worst| pick < *worst) {
            return;
        }
        let at = self.kept.partition_point(|kept| *kept < pick);
        self.kept.insert(at, pick);
    }

    /// The best candidate of this kind, if `kept` knows it.
    fn front(&self) -> Option<&Pick> {
        self.kept.last()
    }

    /// Whether [`RunnerUps::front`] is the best candidate of this kind: some are
    /// kept, or none was dropped.
    fn readable(&self) -> bool {
        !self.kept.is_empty() || self.complete
    }
}

/// Pseudocode 2's pruning and selection over the candidates offered, in any order.
///
/// The goal is to minimise the makespan of the needed tasks, so the default
/// ordering is LJF: longest work first. GS picks the candidate with the largest
/// remaining time: the task that most threatens the makespan, whether by launching
/// it (fresh) or by racing a copy against its straggling original. RAS speculates
/// only when that saves resources.
#[derive(Debug, Default, Clone)]
struct ErrorPicks {
    /// Fresh candidates, ranked by `tnew`.
    fresh: RunnerUps,
    /// Admissible speculative candidates, ranked by `trem` (GS) or saving (RAS).
    speculative: RunnerUps,
}

impl ErrorPicks {
    /// Drop every candidate and keep at least `keep` of each kind from now on.
    fn start(&mut self, keep: usize) {
        self.fresh.start(keep);
        self.speculative.start(keep);
    }

    /// Offer the eligible non-input rows, and the needed set if `boundary` still
    /// delimits it, and report whether it did. On `false` the picks hold a partial
    /// offer to discard.
    fn offer_checked(
        &mut self,
        view: &JobView,
        mode: SpeculationMode,
        still_needed: usize,
        boundary: Option<TaskId>,
    ) -> bool {
        // With no input task still needed, no input row is offered.
        let threshold = if still_needed == 0 {
            None
        } else {
            let boundary = boundary.and_then(|id| view.tasks.get(id));
            let Some(row) = boundary.filter(|t| needed_candidate(t)) else {
                return false;
            };
            Some(input_key(view, row))
        };
        let (offer_inputs, threshold) = (threshold.is_some(), threshold.unwrap_or(0));
        let (mut candidates, mut at_or_below) = (0, 0);
        for t in view.tasks.iter() {
            if !t.eligible {
                continue;
            }
            let (tnew, trem) = (view.tnew(t), view.trem(t));
            let key = if t.stage.is_input() {
                candidates += 1;
                let key = walk_key(false, t.effective_duration(trem, tnew), t.id);
                if !offer_inputs || key > threshold {
                    continue;
                }
                at_or_below += 1;
                key
            } else {
                walk_key(true, 0.0, t.id)
            };
            self.offer(mode, key, t, tnew, trem);
        }
        at_or_below == still_needed.min(candidates)
    }

    /// Offer the eligible non-input rows and the needed set, selected afresh, and
    /// return the needed set's boundary task.
    fn offer_selected(
        &mut self,
        view: &JobView,
        mode: SpeculationMode,
        still_needed: usize,
    ) -> Option<TaskId> {
        let mut keys: Vec<u128> = Vec::new();
        for t in view.tasks.iter() {
            if !t.eligible {
                continue;
            }
            if t.stage.is_input() {
                keys.push(input_key(view, t));
            } else {
                let (tnew, trem) = (view.tnew(t), view.trem(t));
                self.offer(mode, walk_key(true, 0.0, t.id), t, tnew, trem);
            }
        }
        let needed = still_needed.min(keys.len());
        let last = needed.checked_sub(1)?;
        let boundary = *keys.select_nth_unstable(last).1;
        keys.truncate(needed);
        for key in keys {
            if let Some(t) = view.tasks.get(key_task(key)) {
                self.offer(mode, key, t, view.tnew(t), view.trem(t));
            }
        }
        Some(key_task(boundary))
    }

    /// Pseudocode 2's pruning of the candidate `t` at walk position `key`, with its
    /// `tnew` and `trem`: the list it joins and the pick it joins with, or `None` if
    /// it is pruned. A pass offers every candidate through here, and a repeat decision
    /// its one changed row.
    #[inline]
    fn candidate(
        &mut self,
        mode: SpeculationMode,
        key: u128,
        t: &TaskView,
        tnew: f64,
        trem: f64,
    ) -> Option<(&mut RunnerUps, Pick)> {
        let pick = |value| Pick {
            value,
            key,
            id: t.id,
            copies: t.running_copies,
        };
        if !t.is_running() {
            return Some((&mut self.fresh, pick(tnew)));
        }
        if t.running_copies >= MAX_COPIES_PER_TASK {
            return None;
        }
        let value = match mode {
            SpeculationMode::Gs => t.new_copy_beats_running(trem, tnew).then_some(trem),
            SpeculationMode::Ras => t.speculation_saving(trem, tnew).filter(|s| *s > 0.0),
        }?;
        Some((&mut self.speculative, pick(value)))
    }

    /// Offer the candidate `t` to a pass.
    #[inline]
    fn offer(&mut self, mode: SpeculationMode, key: u128, t: &TaskView, tnew: f64, trem: f64) {
        if let Some((list, pick)) = self.candidate(mode, key, t, tnew, trem) {
            list.offer(pick);
        }
    }

    /// Whether both fronts are the best of their kind.
    fn readable(&self) -> bool {
        self.fresh.readable() && self.speculative.readable()
    }

    /// GS races a copy only when its original's `trem` exceeds the longest fresh
    /// task's `tnew`; RAS speculates whenever that saves resources.
    fn best(&self, mode: SpeculationMode) -> Option<Pick> {
        let (fresh, speculative) = (self.fresh.front(), self.speculative.front());
        let prefer_copy = match (mode, fresh, speculative) {
            (SpeculationMode::Gs, Some(f), Some(s)) => s.value > f.value,
            (_, _, s) => s.is_some(),
        };
        if prefer_copy { speculative } else { fresh }.copied()
    }
}

/// [`choose_memoised`], holding a decline (see [`JobView::hold_decline`]).
///
/// GS and RAS read only the job's own tasks, its bound and `now`. While the job's
/// tasks, copies and completed counts are unchanged, `tnew` (the per-work estimate
/// moves only on a completion), eligibility, copy counts and the needed count stay
/// fixed, while `trem`, the resource saving and the remaining deadline only shrink.
/// So no pruned candidate comes back:
///
/// * deadline bounds: a task whose copy would miss the deadline keeps missing it, and
///   a running task that failed `tnew < trem` or `saving > 0` keeps failing;
/// * error bounds: a `None` means every candidate (needed input task or eligible
///   non-input task) is running and fails its test. A fresh task's effective
///   duration `tnew` is fixed while a running task's only falls, so no fresh task
///   joins the needed set, and a running task joins it only once `trem ≤ tnew`,
///   which fails both tests.
pub(crate) fn choose_holding(
    view: &JobView,
    mode: SpeculationMode,
    memo: &mut NeededSetMemo,
) -> Option<Action> {
    let action = choose_memoised(view, mode, memo);
    if action.is_none() {
        view.hold_decline();
    }
    action
}

/// Greedy Speculative scheduling as a standalone per-job policy ("GS-only" in §6.3.1).
///
/// One instance serves one job: it remembers where the job's error-bound needed set
/// ended at its last decision, so a decision whose boundary has not moved is one pass
/// over the rows instead of a selection. Its actions equal [`choose`]'s in
/// [`SpeculationMode::Gs`] on every view.
#[derive(Debug, Default, Clone)]
pub struct GsPolicy {
    memo: NeededSetMemo,
}

impl SpeculationPolicy for GsPolicy {
    fn name(&self) -> &str {
        "GS"
    }

    fn choose(&mut self, view: &JobView) -> Option<Action> {
        choose_holding(view, SpeculationMode::Gs, &mut self.memo)
    }
}

/// Resource Aware Speculative scheduling as a standalone per-job policy ("RAS-only").
///
/// One instance serves one job, with the same needed-set memo as [`GsPolicy`]. Its
/// actions equal [`choose`]'s in [`SpeculationMode::Ras`] on every view.
#[derive(Debug, Default, Clone)]
pub struct RasPolicy {
    memo: NeededSetMemo,
}

impl SpeculationPolicy for RasPolicy {
    fn name(&self) -> &str {
        "RAS"
    }

    fn choose(&mut self, view: &JobView) -> Option<Action> {
        choose_holding(view, SpeculationMode::Ras, &mut self.memo)
    }
}

/// Factory producing [`GsPolicy`] instances.
#[derive(Debug, Default, Clone)]
pub struct GsFactory;

impl PolicyFactory for GsFactory {
    fn name(&self) -> &str {
        "GS"
    }

    fn create(&self, _job: &JobSpec) -> BoxedPolicy {
        Box::new(GsPolicy::default())
    }
}

/// Factory producing [`RasPolicy`] instances.
#[derive(Debug, Default, Clone)]
pub struct RasFactory;

impl PolicyFactory for RasFactory {
    fn name(&self) -> &str {
        "RAS"
    }

    fn create(&self, _job: &JobSpec) -> BoxedPolicy {
        Box::new(RasPolicy::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::TnewEstimate;
    use crate::policy::ActionKind;
    use crate::task::{JobId, StageId, TaskId, TaskRows};
    use std::cell::OnceCell;

    /// A row with no running copy whose `tnew` is `tnew`: its work, read through the
    /// test views' unit per-work estimate.
    fn fresh(id: u32, tnew: f64) -> TaskView {
        TaskView {
            id: TaskId(id),
            stage: StageId::INPUT,
            eligible: true,
            running_copies: 0,
            copy_start: 0.0,
            copy_duration: 0.0,
            rem_bias: 1.0,
            oldest_start: 0.0,
            tnew_bias: 1.0,
            true_new_hint: tnew,
            work: tnew,
        }
    }

    /// A row with `copies` running copies whose best one, launched at `now` with a
    /// unit estimate bias, has `trem` left at `now`.
    fn running(id: u32, now: f64, trem: f64, tnew: f64, copies: u32) -> TaskView {
        let row = TaskView {
            running_copies: copies,
            copy_start: now,
            copy_duration: trem,
            oldest_start: now,
            ..fresh(id, tnew)
        };
        let rows = TaskRows::default();
        let view = JobView {
            now,
            ..error_view(&rows, 0.0, 1, 0)
        };
        assert_eq!(view.trem(&row).to_bits(), trem.to_bits());
        row
    }

    fn deadline_view<'a>(tasks: &'a TaskRows, now: f64, deadline: f64) -> JobView<'a> {
        JobView {
            job: JobId(1),
            now,
            arrival: 0.0,
            bound: Bound::Deadline(deadline),
            input_deadline: None,
            total_input_tasks: tasks.len() + 2,
            completed_input_tasks: 2,
            total_tasks: tasks.len() + 2,
            completed_tasks: 2,
            tasks,
            tnew_estimate: TnewEstimate::PerWork(1.0),
            deadline_index: None,
            wave_width: 2,
            cluster_utilization: 0.8,
            estimation_accuracy: 0.75,
            decline_hold: std::cell::Cell::new(false),
        }
    }

    fn error_view<'a>(tasks: &'a TaskRows, epsilon: f64, total: usize, done: usize) -> JobView<'a> {
        JobView {
            job: JobId(1),
            now: 5.0,
            arrival: 0.0,
            bound: Bound::Error(epsilon),
            input_deadline: None,
            total_input_tasks: total,
            completed_input_tasks: done,
            total_tasks: total,
            completed_tasks: done,
            tasks,
            tnew_estimate: TnewEstimate::PerWork(1.0),
            deadline_index: None,
            wave_width: 3,
            cluster_utilization: 0.8,
            estimation_accuracy: 0.75,
            decline_hold: std::cell::Cell::new(false),
        }
    }

    /// Figure 1 of the paper: nine tasks, two slots, T2 just finished at t = 2.
    /// T1 is running with trem = 5, tnew = 2; T3..T9 are unscheduled with
    /// tnew = 2, 3, 3, 4, 4, 5, 5.
    fn figure1_tasks() -> TaskRows {
        let mut tasks = vec![running(1, 2.0, 5.0, 2.0, 1)];
        for (i, &w) in [2.0, 3.0, 3.0, 4.0, 4.0, 5.0, 5.0].iter().enumerate() {
            tasks.push(fresh(3 + i as u32, w));
        }
        TaskRows::from(tasks)
    }

    #[test]
    fn figure1_gs_launches_shortest_fresh_task() {
        let tasks = figure1_tasks();
        let view = deadline_view(&tasks, 2.0, 6.0);
        let a = choose(&view, SpeculationMode::Gs).unwrap();
        // GS schedules T3 (lowest tnew among all candidates; ties broken by order).
        assert_eq!(a.task, TaskId(3));
        assert_eq!(a.kind, ActionKind::Launch);
    }

    #[test]
    fn figure1_ras_speculates_t1() {
        let tasks = figure1_tasks();
        let view = deadline_view(&tasks, 2.0, 6.0);
        let a = choose(&view, SpeculationMode::Ras).unwrap();
        // RAS speculates T1: saving = 1*5 − 2*2 = 1 > 0.
        assert_eq!(a.task, TaskId(1));
        assert_eq!(a.kind, ActionKind::Speculate);
    }

    #[test]
    fn deadline_pruning_drops_tasks_that_cannot_finish() {
        // Remaining deadline of 1s: only a task with tnew <= 1 survives.
        let tasks = TaskRows::from(vec![fresh(1, 3.0), fresh(2, 0.8)]);
        let view = deadline_view(&tasks, 5.0, 6.0);
        let a = choose(&view, SpeculationMode::Gs).unwrap();
        assert_eq!(a.task, TaskId(2));
        // With nothing fitting, no action at all.
        let tasks = TaskRows::from(vec![fresh(1, 3.0)]);
        let view = deadline_view(&tasks, 5.0, 6.0);
        assert!(choose(&view, SpeculationMode::Gs).is_none());
        assert!(choose(&view, SpeculationMode::Ras).is_none());
    }

    #[test]
    fn past_deadline_yields_no_action() {
        let tasks = TaskRows::from(vec![fresh(1, 0.5)]);
        let view = deadline_view(&tasks, 10.0, 6.0);
        assert!(choose(&view, SpeculationMode::Gs).is_none());
    }

    #[test]
    fn gs_requires_new_copy_to_beat_running_copy() {
        // Running task with trem = 2, tnew = 3: a new copy is slower, GS must not copy.
        let tasks = TaskRows::from(vec![running(1, 0.0, 2.0, 3.0, 1)]);
        let view = deadline_view(&tasks, 0.0, 10.0);
        assert!(choose(&view, SpeculationMode::Gs).is_none());
        // trem = 4, tnew = 3: now GS speculates.
        let tasks = TaskRows::from(vec![running(1, 0.0, 4.0, 3.0, 1)]);
        let view = deadline_view(&tasks, 0.0, 10.0);
        let a = choose(&view, SpeculationMode::Gs).unwrap();
        assert_eq!(a.kind, ActionKind::Speculate);
    }

    #[test]
    fn ras_requires_positive_resource_saving() {
        // trem = 4, tnew = 3: GS would speculate but saving = 4 − 6 = −2 < 0.
        let tasks = TaskRows::from(vec![running(1, 0.0, 4.0, 3.0, 1)]);
        let view = deadline_view(&tasks, 0.0, 10.0);
        assert!(choose(&view, SpeculationMode::Ras).is_none());
        // trem = 7, tnew = 3: saving = 1 > 0.
        let tasks = TaskRows::from(vec![running(1, 0.0, 7.0, 3.0, 1)]);
        let view = deadline_view(&tasks, 0.0, 10.0);
        let a = choose(&view, SpeculationMode::Ras).unwrap();
        assert_eq!(a.kind, ActionKind::Speculate);
    }

    #[test]
    fn copy_cap_is_enforced() {
        let tasks = TaskRows::from(vec![running(1, 0.0, 100.0, 1.0, MAX_COPIES_PER_TASK)]);
        let view = deadline_view(&tasks, 0.0, 1000.0);
        assert!(choose(&view, SpeculationMode::Gs).is_none());
        assert!(choose(&view, SpeculationMode::Ras).is_none());
    }

    /// A fresh row of the given work and estimate bias.
    fn fresh_row(id: u32, work: f64, tnew_bias: f64) -> TaskView {
        TaskView {
            work,
            tnew_bias,
            ..fresh(id, work)
        }
    }

    /// GS and RAS launch `want` from `rows` under the per-work estimate `per_work`
    /// and a deadline every row meets, with an index built from the rows, with an
    /// empty cell the decision builds one into, and without one.
    fn assert_deadline_launch(rows: &TaskRows, per_work: f64, want: u32) {
        let estimate = TnewEstimate::PerWork(per_work);
        let built = OnceCell::from(DeadlineIndex::build(rows, estimate));
        let empty = OnceCell::new();
        for deadline_index in [None, Some(&built), Some(&empty)] {
            let view = JobView {
                tnew_estimate: estimate,
                deadline_index,
                ..deadline_view(rows, 0.0, 1e6)
            };
            for mode in [SpeculationMode::Gs, SpeculationMode::Ras] {
                assert_eq!(
                    choose(&view, mode),
                    Some(Action::launch(TaskId(want))),
                    "{mode:?}, index {}",
                    deadline_index.is_some()
                );
            }
        }
    }

    #[test]
    fn the_fresh_walk_reads_past_a_front_whose_tnew_rounds_higher() {
        let per_work = 2.8020375238942243;
        let a = fresh_row(0, 5.261359425877181, 0.9190125527545436);
        let b = fresh_row(1, 7.661950635819112, 0.6310736765034833);
        let estimate = TnewEstimate::PerWork(per_work);
        assert_eq!(estimate.tnew_key(&a), 4.835255356934568);
        assert_eq!(estimate.tnew_key(&b), 4.835255356934569);
        let rows = TaskRows::from(vec![a, b]);
        let view = JobView {
            tnew_estimate: estimate,
            ..deadline_view(&rows, 0.0, 1e6)
        };
        assert_eq!(view.tnew(&rows[0]), 13.548566947741223);
        assert_eq!(view.tnew(&rows[1]), 13.548566947741222);
        // A is the front of the key order, but B's `tnew` is the least.
        assert_deadline_launch(&rows, per_work, 1);
    }

    #[test]
    fn equal_tnews_from_different_keys_go_to_the_lower_task_id() {
        let per_work = 1.291125722135432;
        let d = fresh_row(0, 18.18179848988084, 0.6238019611496456);
        let c = fresh_row(1, 8.547931863936027, 1.3268521246720382);
        let estimate = TnewEstimate::PerWork(per_work);
        assert_eq!(estimate.tnew_key(&c), 11.341841555215332);
        assert_eq!(estimate.tnew_key(&d), 11.341841555215334);
        let rows = TaskRows::from(vec![d, c]);
        let view = JobView {
            tnew_estimate: estimate,
            ..deadline_view(&rows, 0.0, 1e6)
        };
        assert_eq!(view.tnew(&rows[0]), 14.643743368323047);
        assert_eq!(view.tnew(&rows[1]), 14.643743368323047);
        // C leads the key order; D ties it on `tnew` and comes first in the view.
        assert_deadline_launch(&rows, per_work, 0);
    }

    #[test]
    fn floored_tnews_go_to_the_lowest_task_id() {
        // Every row but the last reads the 1e-6 floor. The key order starts with
        // the `-0.0` work of task 4, then tasks 1–3 of zero work, then task 0,
        // whose tiny work keys above theirs.
        let mut rows = vec![fresh_row(0, 1e-9, 0.9)];
        rows.extend((1..4).map(|id| fresh_row(id, 0.0, 0.5 + f64::from(id))));
        rows.push(fresh_row(4, -0.0, 1.0));
        rows.push(fresh_row(5, 3.0, 1.0));
        assert_deadline_launch(&TaskRows::from(rows), 1.7, 0);
    }

    /// Figure 2 of the paper: six tasks, three slots, at t = 5 T1/T2/T4 are done,
    /// T3 is running with trem = 6, tnew = 3; T5, T6 are unscheduled with tnew 2 and 3.
    fn figure2_tasks() -> TaskRows {
        TaskRows::from(vec![
            running(3, 5.0, 6.0, 3.0, 1),
            fresh(5, 2.0),
            fresh(6, 3.0),
        ])
    }

    #[test]
    fn figure2_gs_speculates_longest_straggler() {
        let tasks = figure2_tasks();
        // Error limit 20% of 6 tasks => 5 tasks needed, 3 done => 2 more needed.
        let view = error_view(&tasks, 0.2, 6, 3);
        let a = choose(&view, SpeculationMode::Gs).unwrap();
        // T3 has the highest trem among the earliest-needed tasks.
        // needed = 2, earliest by effective duration: T5 (2), T6 (3) — wait, T3's
        // effective duration is min(6, 3) = 3, tie with T6; the two earliest are
        // T5 and either T3/T6. GS picks the largest remaining among candidates.
        assert!(a.task == TaskId(3) || a.task == TaskId(6));
    }

    #[test]
    fn figure2_ras_declines_speculation() {
        let tasks = figure2_tasks();
        let view = error_view(&tasks, 0.2, 6, 3);
        let a = choose(&view, SpeculationMode::Ras).unwrap();
        // saving for T3 = 6 − 2*3 = 0, not > 0, so RAS launches a fresh task from the
        // needed set instead of duplicating T3.
        assert_eq!(a.kind, ActionKind::Launch);
        assert_eq!(a.task, TaskId(5));
    }

    #[test]
    fn error_bound_ignores_tasks_beyond_needed_set() {
        // 10 input tasks, ε = 0.5 => 5 needed, 4 done => only the single earliest
        // unfinished task is a candidate.
        let tasks = TaskRows::from(vec![fresh(1, 9.0), fresh(2, 1.0), fresh(3, 5.0)]);
        let view = error_view(&tasks, 0.5, 10, 4);
        let a = choose(&view, SpeculationMode::Gs).unwrap();
        // Only the earliest (T2, effective duration 1.0) is in the needed set, so it
        // is scheduled even though LJF would otherwise prefer T1.
        assert_eq!(a.task, TaskId(2));
    }

    #[test]
    fn exact_jobs_schedule_longest_first() {
        let tasks = TaskRows::from(vec![fresh(1, 2.0), fresh(2, 8.0), fresh(3, 5.0)]);
        let view = error_view(&tasks, 0.0, 10, 7);
        let a = choose(&view, SpeculationMode::Gs).unwrap();
        assert_eq!(a.task, TaskId(2));
        let a = choose(&view, SpeculationMode::Ras).unwrap();
        assert_eq!(a.task, TaskId(2));
    }

    /// The walk order the packed key replaces: the non-input flag, then the
    /// effective duration by `total_cmp`, then the task id.
    fn tuple_cmp(a: (bool, f64, u32), b: (bool, f64, u32)) -> std::cmp::Ordering {
        a.0.cmp(&b.0).then(a.1.total_cmp(&b.1)).then(a.2.cmp(&b.2))
    }

    #[test]
    fn walk_key_orders_like_the_tuple_comparator() {
        let durations = [
            -0.0,
            0.0,
            1e-6,
            1.0,
            1.0 + f64::EPSILON,
            2.5,
            f64::MAX,
            f64::INFINITY,
            -1.0,
            f64::NEG_INFINITY,
            f64::NAN,
        ];
        let mut walk = Vec::new();
        for non_input in [false, true] {
            for &effective in &durations {
                for id in [0, 1, 2, 1 << 20, u32::MAX] {
                    walk.push((non_input, effective, id));
                }
            }
        }
        for &a in &walk {
            let key = walk_key(a.0, a.1, TaskId(a.2));
            assert_eq!(key_task(key), TaskId(a.2));
            for &b in &walk {
                assert_eq!(
                    key.cmp(&walk_key(b.0, b.1, TaskId(b.2))),
                    tuple_cmp(a, b),
                    "{a:?} against {b:?}"
                );
            }
        }

        // Rows as views present them: an infinite `trem` on fresh rows, equal
        // durations, and oracle hints of zero work, `+0.0` and `-0.0`.
        let mut rows = vec![
            fresh(0, 2.0),
            running(1, 5.0, f64::INFINITY, 2.0, 1),
            running(2, 5.0, 2.0, 3.0, 1),
            fresh(3, 0.0),
            fresh(4, 0.0),
        ];
        rows[3].true_new_hint = 0.0;
        rows[4].true_new_hint = -0.0;
        let rows = TaskRows::from(rows);
        let mut view = error_view(&rows, 0.0, 10, 5);
        for estimate in [TnewEstimate::PerWork(1.0), TnewEstimate::Oracle] {
            view.tnew_estimate = estimate;
            let walk: Vec<(bool, f64, u32)> = rows
                .iter()
                .map(|t| {
                    (
                        false,
                        t.effective_duration(view.trem(t), view.tnew(t)),
                        t.id.0,
                    )
                })
                .collect();
            for (i, a) in rows.iter().enumerate() {
                for (j, b) in rows.iter().enumerate() {
                    assert_eq!(
                        input_key(&view, a).cmp(&input_key(&view, b)),
                        tuple_cmp(walk[i], walk[j]),
                        "{estimate:?}: row {i} against row {j}"
                    );
                }
            }
        }
    }

    /// Whether `memo`'s boundary alone settles the needed set of `view`.
    fn memo_check(memo: &NeededSetMemo, view: &JobView, mode: SpeculationMode) -> bool {
        let mut picks = ErrorPicks::default();
        picks.start(FIRST_KEEP);
        let still_needed = view.input_tasks_still_needed().unwrap();
        picks.offer_checked(view, mode, still_needed, memo.boundary)
    }

    #[test]
    fn the_memo_settles_decisions_while_the_boundary_holds() {
        // Works 1..=6 under a unit estimate; 10 input tasks, ε = 0.2, 5 done: the
        // three shortest rows are needed, so the row of work 3 is the boundary.
        let rows: Vec<TaskView> = (1..=6).map(|w| fresh(w, f64::from(w))).collect();
        let (rows, later_rows) = (
            TaskRows::from(rows.clone()),
            TaskRows::from(rows[1..].to_vec()),
        );
        let view = error_view(&rows, 0.2, 10, 5);
        for mode in [SpeculationMode::Gs, SpeculationMode::Ras] {
            let mut memo = NeededSetMemo::default();
            assert!(
                !memo_check(&memo, &view, mode),
                "an empty memo settles nothing"
            );
            assert_eq!(
                choose_memoised(&view, mode, &mut memo),
                Some(Action::launch(TaskId(3)))
            );
            assert_eq!(memo.boundary, Some(TaskId(3)));
            // The same view again: the boundary row counts itself.
            assert!(memo_check(&memo, &view, mode));

            // The row of work 1 completes and the per-work estimate doubles: every
            // key moves, but re-keyed at the new estimate the boundary still holds.
            let mut later = error_view(&later_rows, 0.2, 10, 6);
            later.tnew_estimate = TnewEstimate::PerWork(2.0);
            assert!(memo_check(&memo, &later, mode));
            assert_eq!(
                choose_memoised(&later, mode, &mut memo),
                choose(&later, mode)
            );

            // A boundary task that is gone, or a foreign one, falls back to selection.
            let foreign = NeededSetMemo {
                boundary: Some(TaskId(99)),
                ..NeededSetMemo::default()
            };
            assert!(!memo_check(&foreign, &view, mode));
            let mut foreign = foreign;
            assert_eq!(
                choose_memoised(&view, mode, &mut foreign),
                choose(&view, mode)
            );
            assert_eq!(foreign.boundary, Some(TaskId(3)));
        }
    }

    #[test]
    fn repeat_decisions_at_one_instant_are_served_from_the_kept_lists() {
        // Eight fresh rows of works 1..=8, all needed. RAS launches them longest
        // first, and each launched copy's `trem` is too short to be worth racing.
        let mut rows = TaskRows::from((1..=8).map(|w| fresh(w, f64::from(w))).collect::<Vec<_>>());
        let mut memo = NeededSetMemo::default();
        for (decision, work) in (1..=8).rev().enumerate() {
            let view = error_view(&rows, 0.0, 10, 2);
            let action = choose_memoised(&view, SpeculationMode::Ras, &mut memo);
            assert_eq!(action, choose(&view, SpeculationMode::Ras));
            assert_eq!(
                action,
                Some(Action::launch(TaskId(work))),
                "decision {decision}"
            );
            *rows.get_mut(TaskId(work)).unwrap() = running(work, 5.0, 0.5, f64::from(work), 1);
        }
        // Passes kept 2, then 4 once those ran dry, then 8: three passes for
        // eight decisions.
        assert_eq!(memo.picks.fresh.keep, 8);
        // With every row running, RAS declines, and the decline drops the lists.
        let view = error_view(&rows, 0.0, 10, 2);
        assert_eq!(
            choose_memoised(&view, SpeculationMode::Ras, &mut memo),
            None
        );
        assert!(memo.stamp.is_none() && memo.answer.is_none());
        assert_eq!(memo.picks.fresh.keep, FIRST_KEEP);
    }

    #[test]
    fn policies_expose_names() {
        assert_eq!(GsPolicy::default().name(), "GS");
        assert_eq!(RasPolicy::default().name(), "RAS");
        assert_eq!(GsFactory.name(), "GS");
        assert_eq!(RasFactory.name(), "RAS");
        assert_eq!(SpeculationMode::Gs.name(), "GS");
        assert_eq!(SpeculationMode::Ras.name(), "RAS");
    }

    #[test]
    fn factories_create_working_policies() {
        let job = JobSpec::single_stage(1, 0.0, Bound::Deadline(10.0), vec![1.0, 2.0]);
        let tasks = TaskRows::from(vec![fresh(0, 1.0), fresh(1, 2.0)]);
        let view = deadline_view(&tasks, 0.0, 10.0);
        let mut gs = GsFactory.create(&job);
        assert_eq!(gs.choose(&view).unwrap().task, TaskId(0));
        let mut ras = RasFactory.create(&job);
        assert_eq!(ras.choose(&view).unwrap().task, TaskId(0));
    }
}
