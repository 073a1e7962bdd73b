//! Shared helpers for unit tests across the baseline policies.

#![allow(dead_code)]

use grass_core::{Bound, JobId, JobView, StageId, TaskId, TaskRows, TaskView, TnewEstimate};

/// An unscheduled input-stage task with the given estimated fresh-copy duration: its
/// `work` with a unit bias, read through the helper views' unit per-work estimate.
pub fn unscheduled_task(id: u32, tnew: f64) -> TaskView {
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

/// A running input-stage task whose best copy, with a unit estimate bias, has `trem`
/// left at time 0, the `now` of [`error_view`] and of every [`deadline_view`] the
/// tests build. The copy is modelled as having run `max(trem, 1)` seconds already, so
/// slower tasks (larger `trem`) show proportionally lower progress rates — the signal
/// LATE keys on.
pub fn running_task(id: u32, trem: f64, tnew: f64, copies: u32) -> TaskView {
    let elapsed = trem.max(1.0);
    let row = TaskView {
        running_copies: copies,
        copy_start: -elapsed,
        copy_duration: elapsed + trem,
        oldest_start: -elapsed,
        ..unscheduled_task(id, tnew)
    };
    let derived = error_view(&TaskRows::default(), 0.0, 1, 0).trem(&row);
    assert_eq!(
        derived.to_bits(),
        trem.to_bits(),
        "trem {trem} derives as {derived}"
    );
    row
}

/// A deadline-bound job view over the given tasks.
pub fn deadline_view<'a>(tasks: &'a TaskRows, now: f64, deadline: f64) -> JobView<'a> {
    JobView {
        job: JobId(1),
        now,
        arrival: 0.0,
        bound: Bound::Deadline(deadline),
        input_deadline: None,
        total_input_tasks: tasks.len() + 1,
        completed_input_tasks: 1,
        total_tasks: tasks.len() + 1,
        completed_tasks: 1,
        tasks,
        tnew_estimate: TnewEstimate::PerWork(1.0),
        deadline_index: None,
        wave_width: 4,
        cluster_utilization: 0.7,
        estimation_accuracy: 0.75,
        decline_hold: std::cell::Cell::new(false),
    }
}

/// An error-bound job view over the given tasks.
pub fn error_view<'a>(
    tasks: &'a TaskRows,
    epsilon: f64,
    total: usize,
    completed: usize,
) -> JobView<'a> {
    JobView {
        job: JobId(1),
        now: 0.0,
        arrival: 0.0,
        bound: Bound::Error(epsilon),
        input_deadline: None,
        total_input_tasks: total,
        completed_input_tasks: completed,
        total_tasks: total,
        completed_tasks: completed,
        tasks,
        tnew_estimate: TnewEstimate::PerWork(1.0),
        deadline_index: None,
        wave_width: 4,
        cluster_utilization: 0.7,
        estimation_accuracy: 0.75,
        decline_hold: std::cell::Cell::new(false),
    }
}
