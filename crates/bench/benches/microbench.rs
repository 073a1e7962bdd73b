//! Micro-benchmarks of the building blocks: policy decision latency, simulator event
//! throughput, workload generation and the Hill estimator. These are the overheads a
//! production scheduler would care about — the paper's schedulers make a decision
//! every time a slot frees, so `choose()` must be cheap.

use std::cell::OnceCell;
use std::sync::Arc;
use std::time::Duration;

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use grass_core::grass::{BoundKind, QueryContext, Sample};
use grass_core::{
    Bound, DeadlineIndex, EstimatorConfig, FactorSet, GrassConfig, GrassFactory, GsFactory, JobId,
    JobSpec, JobView, PolicyFactory, RasFactory, SampleStore, SizeBucket, SpeculationMode, StageId,
    TaskId, TaskRows, TaskView, TnewEstimate,
};
use grass_model::tail_index;
use grass_oracles::store::ReferenceSampleStore;
use grass_policies::{LateFactory, MantriFactory, NoSpecPolicy};
use grass_sim::{run_simulation, ClusterConfig, JobRuntime, SimConfig, SlotId};
use grass_workload::{generate, BoundSpec, Framework, TraceProfile, WorkloadConfig};

/// The `now` of every [`view_of`] view.
const NOW: f64 = 10.0;

/// Build a job view with `n` tasks, half of them running, for decision benchmarks.
/// A row's `tnew` is its work: [`view_of`] reads it through a unit per-work estimate.
/// A running row's copy started 5 s before [`NOW`] and has `4 + i % 7` seconds left.
fn synthetic_view(n: u32, bound: Bound) -> (TaskRows, JobSpec) {
    let tasks: TaskRows = (0..n)
        .map(|i| {
            let running = i % 2 == 0;
            let (start, duration) = if running {
                (NOW - 5.0, 5.0 + 4.0 + (i % 7) as f64)
            } else {
                (0.0, 0.0)
            };
            TaskView {
                id: TaskId(i),
                stage: StageId::INPUT,
                eligible: true,
                running_copies: u32::from(running),
                copy_start: start,
                copy_duration: duration,
                rem_bias: 1.0,
                oldest_start: start,
                tnew_bias: 1.0,
                true_new_hint: 2.0 + (i % 5) as f64,
                work: 2.0 + (i % 5) as f64,
            }
        })
        .collect();
    let spec = JobSpec::single_stage(1, 0.0, bound, vec![2.0; n as usize]);
    (tasks, spec)
}

fn view_of(tasks: &TaskRows, bound: Bound) -> JobView<'_> {
    JobView {
        job: JobId(1),
        now: NOW,
        arrival: 0.0,
        bound,
        input_deadline: None,
        total_input_tasks: tasks.len() + 10,
        completed_input_tasks: 10,
        total_tasks: tasks.len() + 10,
        completed_tasks: 10,
        tasks,
        tnew_estimate: TnewEstimate::PerWork(1.0),
        deadline_index: None,
        wave_width: 20,
        cluster_utilization: 0.8,
        estimation_accuracy: 0.75,
        decline_hold: std::cell::Cell::new(false),
    }
}

/// `choose()` over the same 500 tasks under a deadline bound (GS/RAS run
/// Pseudocode 1) and under a 10% error bound (Pseudocode 2: 449 of the 500 are
/// still needed, so the needed-set selection does real work). The deadline views
/// carry the `DeadlineIndex` the simulator would keep for them, built outside the
/// timed loop.
///
/// Each iteration asks a fresh policy, so GS, RAS and GRASS always select the
/// needed set. Under the error bound, `GS_warm`, `RAS_warm` and `GRASS_warm`
/// keep one policy across iterations, as the simulator keeps one per job: after
/// the first call its needed-set memo settles the set in one pass. The view does
/// not change between their calls, so every call is the first decision of its
/// instant. `GS_same_instant` and `RAS_same_instant` apply each answer to the
/// rows before the next call at the same `now`, as the simulator does when one
/// instant frees many slots, and start over from the original rows and a fresh
/// policy when the policy declines.
fn policy_decision_latency(c: &mut Criterion) {
    let groups = [
        ("policy_choose_500_tasks", Bound::Deadline(100.0)),
        ("policy_choose_500_tasks_error", Bound::Error(0.1)),
    ];
    for (group_name, bound) in groups {
        let mut group = c.benchmark_group(group_name);
        group
            .sample_size(30)
            .warm_up_time(Duration::from_millis(500))
            .measurement_time(Duration::from_secs(2));
        let (tasks, spec) = synthetic_view(500, bound);
        let index = OnceCell::new();
        if bound.is_deadline() {
            index.get_or_init(|| DeadlineIndex::build(&tasks, TnewEstimate::PerWork(1.0)));
        }
        let factories: Vec<(&str, Box<dyn PolicyFactory>)> = vec![
            ("GS", Box::new(GsFactory)),
            ("RAS", Box::new(RasFactory)),
            ("GRASS", Box::new(GrassFactory::new(1))),
            ("LATE", Box::new(LateFactory)),
            ("Mantri", Box::new(MantriFactory)),
        ];
        for (name, factory) in &factories {
            group.bench_function(*name, |b| {
                b.iter_batched(
                    || factory.create(&spec),
                    |mut policy| {
                        let view = JobView {
                            deadline_index: Some(&index),
                            ..view_of(&tasks, bound)
                        };
                        criterion::black_box(policy.choose(&view))
                    },
                    BatchSize::SmallInput,
                )
            });
        }
        if matches!(bound, Bound::Error(_)) {
            for (name, factory) in &factories[..3] {
                let mut policy = factory.create(&spec);
                group.bench_function(format!("{name}_warm"), |b| {
                    b.iter(|| criterion::black_box(policy.choose(&view_of(&tasks, bound))))
                });
            }
            for (name, factory) in &factories[..2] {
                let mut policy = factory.create(&spec);
                let mut rows = tasks.clone();
                group.bench_function(format!("{name}_same_instant"), |b| {
                    b.iter(|| {
                        let action = policy.choose(&view_of(&rows, bound));
                        match action.and_then(|a| rows.get_mut(a.task)) {
                            // One more copy, launched now, which becomes the best
                            // copy with a `trem` derived from the task id.
                            Some(row) => {
                                if row.running_copies == 0 {
                                    row.oldest_start = NOW;
                                }
                                row.running_copies += 1;
                                (row.copy_start, row.copy_duration) =
                                    (NOW, 1.0 + f64::from(row.id.0 % 9));
                            }
                            None => {
                                rows.clone_from(&tasks);
                                policy = factory.create(&spec);
                            }
                        }
                        criterion::black_box(action)
                    })
                });
            }
        }
        group.finish();
    }
}

/// Deterministic synthetic sample stream spread evenly over all four
/// (mode, kind) partitions — the worst case for the partitioned layout, since
/// only a quarter of the records land in the queried partition.
fn synthetic_sample(i: usize) -> Sample {
    let mode = if i.is_multiple_of(2) {
        SpeculationMode::Gs
    } else {
        SpeculationMode::Ras
    };
    let kind = if (i / 2).is_multiple_of(2) {
        BoundKind::Deadline
    } else {
        BoundKind::Error
    };
    Sample {
        mode,
        kind,
        size_bucket: SizeBucket((i % 8) as u8),
        bound_value: 10.0 + (i % 31) as f64,
        performance: 5.0 + (i % 17) as f64,
        utilization: 0.05 + ((i % 10) as f64) / 10.0,
        accuracy: 0.5 + ((i % 5) as f64) / 10.0,
    }
}

/// Fixed-relevance stream: exactly `n / stride` samples land in the queried
/// (GS, deadline) partition, the rest cycle over the other three partitions —
/// the fleet-scale shape where one bound kind or mode dominates the learned
/// history and predictions for the minority partition should not pay for it.
fn fixed_relevant_sample(i: usize, stride: usize) -> Sample {
    let mut s = synthetic_sample(i);
    if i.is_multiple_of(stride) {
        s.mode = SpeculationMode::Gs;
        s.kind = BoundKind::Deadline;
    } else {
        match i % 3 {
            0 => {
                s.mode = SpeculationMode::Ras;
                s.kind = BoundKind::Deadline;
            }
            1 => {
                s.mode = SpeculationMode::Gs;
                s.kind = BoundKind::Error;
            }
            _ => {
                s.mode = SpeculationMode::Ras;
                s.kind = BoundKind::Error;
            }
        }
    }
    s
}

fn store_query() -> QueryContext {
    QueryContext {
        kind: BoundKind::Deadline,
        size_bucket: SizeBucket(3),
        bound_value: 25.0,
        utilization: 0.55,
        accuracy: 0.72,
    }
}

/// `predict_rate` latency at growing store populations: the frozen
/// pre-partitioning store (whole-store filtered scan) and the partitioned store
/// (single-partition scan).
fn sample_store_prediction(c: &mut Criterion) {
    let mut group = c.benchmark_group("sample_store_predict_rate");
    group
        .sample_size(30)
        .warm_up_time(Duration::from_millis(500))
        .measurement_time(Duration::from_secs(2));
    let ctx = store_query();
    for n in [1_000usize, 10_000, 50_000] {
        let reference = ReferenceSampleStore::with_capacity(n);
        let exact = SampleStore::with_capacity(n);
        for i in 0..n {
            let sample = synthetic_sample(i);
            reference.record(sample.clone());
            exact.record(sample);
        }
        let label = format!("{}k", n / 1_000);
        group.bench_function(format!("reference/{label}"), |b| {
            b.iter(|| {
                criterion::black_box(reference.predict_rate(
                    SpeculationMode::Gs,
                    &ctx,
                    FactorSet::all(),
                    1,
                ))
            })
        });
        group.bench_function(format!("exact/{label}"), |b| {
            b.iter(|| {
                criterion::black_box(exact.predict_rate(
                    SpeculationMode::Gs,
                    &ctx,
                    FactorSet::all(),
                    1,
                ))
            })
        });

        // O(relevant) series: the queried partition holds a fixed 500 samples
        // while the store grows around it. The whole-store scan pays for every
        // stored sample; the partition scan pays only for the relevant ones.
        let stride = n / 500;
        let reference = ReferenceSampleStore::with_capacity(n);
        let exact = SampleStore::with_capacity(n);
        for i in 0..n {
            let sample = fixed_relevant_sample(i, stride);
            reference.record(sample.clone());
            exact.record(sample);
        }
        group.bench_function(format!("reference/500-of-{label}"), |b| {
            b.iter(|| {
                criterion::black_box(reference.predict_rate(
                    SpeculationMode::Gs,
                    &ctx,
                    FactorSet::all(),
                    1,
                ))
            })
        });
        group.bench_function(format!("exact/500-of-{label}"), |b| {
            b.iter(|| {
                criterion::black_box(exact.predict_rate(
                    SpeculationMode::Gs,
                    &ctx,
                    FactorSet::all(),
                    1,
                ))
            })
        });
    }
    group.finish();
}

/// End-to-end GRASS `choose()` with a warmed store: the store scan dominates
/// once the store is large, so this shows how much of the predict_rate win
/// survives in the full decision path.
fn grass_choose_warmed(c: &mut Criterion) {
    let mut group = c.benchmark_group("grass_choose_warmed_500_tasks");
    group
        .sample_size(30)
        .warm_up_time(Duration::from_millis(500))
        .measurement_time(Duration::from_secs(2));
    let (tasks, spec) = synthetic_view(500, Bound::Deadline(100.0));
    for n in [1_000usize, 10_000, 50_000] {
        let store = Arc::new(SampleStore::with_capacity(n));
        for i in 0..n {
            store.record(synthetic_sample(i));
        }
        let label = format!("{}k", n / 1_000);
        let factory = GrassFactory::with_store(GrassConfig::paper_default(), store, 1);
        group.bench_function(format!("exact/{label}"), |b| {
            b.iter_batched(
                || factory.create(&spec),
                |mut policy| {
                    let view = view_of(&tasks, Bound::Deadline(100.0));
                    criterion::black_box(policy.choose(&view))
                },
                BatchSize::SmallInput,
            )
        });
    }
    group.finish();
}

fn simulator_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("simulator");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(500))
        .measurement_time(Duration::from_secs(3));
    let workload = WorkloadConfig::new(TraceProfile::facebook(Framework::Spark))
        .with_jobs(20)
        .with_bound(BoundSpec::paper_errors());
    let jobs = generate(&workload, 7);
    let sim = SimConfig {
        cluster: ClusterConfig {
            machines: 20,
            slots_per_machine: 4,
            ..ClusterConfig::ec2_scaled()
        },
        ..SimConfig::default()
    };
    group.bench_function("20_error_bound_jobs_gs", |b| {
        b.iter(|| {
            let result = run_simulation(&sim, jobs.clone(), &GsFactory);
            criterion::black_box(result.total_copies)
        })
    });
    // One cell of the recorded-trace sweep (perfbench `sweep-fleet`): 48
    // deadline-bound jobs of generator seed 7 on the grid's smallest cluster,
    // where deadline-bound dispatch dominates. LATE reads no deadline index but
    // runs its upkeep.
    let workload = WorkloadConfig::new(TraceProfile::facebook(Framework::Spark))
        .with_jobs(48)
        .with_bound(BoundSpec::paper_deadlines());
    let deadline_jobs = generate(&workload, 7);
    let sweep_cell = SimConfig {
        cluster: ClusterConfig {
            machines: 8,
            slots_per_machine: 4,
            ..ClusterConfig::ec2_scaled()
        },
        ..SimConfig::default()
    };
    let late = LateFactory;
    let factories: [(&str, &dyn PolicyFactory); 3] =
        [("gs", &GsFactory), ("ras", &RasFactory), ("late", &late)];
    for (name, factory) in factories {
        group.bench_function(format!("48_deadline_jobs_{name}"), |b| {
            b.iter(|| {
                let result = run_simulation(&sweep_cell, deadline_jobs.clone(), factory);
                criterion::black_box(result.total_copies)
            })
        });
    }
    // An arrival burst in isolation: one error-bound job of 2,000 tasks arrives
    // at an idle cluster of 2,000 slots, so its policy decides about 2,000 times
    // at one instant before the first copy finishes.
    let work: Vec<f64> = (0..2000)
        .map(|i| 1.0 + f64::from(i * 37 % 101) / 25.0)
        .collect();
    let burst = vec![JobSpec::single_stage(1, 0.0, Bound::Error(0.05), work)];
    let idle_cluster = SimConfig {
        cluster: ClusterConfig::small(1000, 2),
        ..SimConfig::default()
    };
    for &(name, factory) in &factories[..2] {
        group.bench_function(format!("error_burst_2000_tasks_{name}"), |b| {
            b.iter(|| {
                let result = run_simulation(&idle_cluster, burst.clone(), factory);
                criterion::black_box(result.total_copies)
            })
        });
    }
    group.finish();
}

/// The resident task table's upkeep with no policy: one 4,000-task job launches a
/// copy of every task in task-id (FIFO) order, then completes them in the same
/// order, as LATE's FIFO launches complete near the front of the table. Each
/// iteration starts from a freshly built runtime, made outside the timed part.
fn job_runtime_upkeep(c: &mut Criterion) {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let mut group = c.benchmark_group("job_runtime");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(500))
        .measurement_time(Duration::from_secs(2));
    const TASKS: u32 = 4_000;
    let spec = JobSpec::single_stage(1, 0.0, Bound::EXACT, vec![1.0; TASKS as usize]);
    let estimator = EstimatorConfig::oracle();
    let slot = SlotId {
        machine: 0,
        slot: 0,
    };
    group.bench_function("fifo_launch_complete_4000_tasks", |b| {
        b.iter_batched(
            || {
                let mut rng = StdRng::seed_from_u64(1);
                let mut rt = JobRuntime::new(
                    spec.clone(),
                    Box::new(NoSpecPolicy),
                    &estimator,
                    0.0,
                    &mut rng,
                );
                rt.init_task_views(1.0);
                (rt, rng)
            },
            |(mut rt, mut rng)| {
                for id in 0..TASKS {
                    let copy = u64::from(id);
                    rt.launch_copy(TaskId(id), copy, slot, 0.0, 1.0, &estimator, &mut rng);
                }
                for id in 0..TASKS {
                    rt.complete_copy(TaskId(id), u64::from(id), 1.0);
                }
                criterion::black_box(rt.completed_total())
            },
            BatchSize::SmallInput,
        )
    });
    group.finish();
}

fn workload_generation(c: &mut Criterion) {
    let mut group = c.benchmark_group("workload");
    group
        .sample_size(20)
        .warm_up_time(Duration::from_millis(500))
        .measurement_time(Duration::from_secs(2));
    let cfg = WorkloadConfig::new(TraceProfile::bing(Framework::Hadoop)).with_jobs(500);
    group.bench_function("generate_500_jobs", |b| {
        b.iter(|| criterion::black_box(generate(&cfg, 3).len()))
    });
    group.finish();
}

fn hill_estimation(c: &mut Criterion) {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut group = c.benchmark_group("hill");
    group
        .sample_size(20)
        .warm_up_time(Duration::from_millis(500))
        .measurement_time(Duration::from_secs(2));
    let mut rng = StdRng::seed_from_u64(1);
    let samples: Vec<f64> = (0..50_000)
        .map(|_| {
            let u: f64 = rng.gen_range(f64::EPSILON..1.0);
            u.powf(-1.0 / 1.259)
        })
        .collect();
    group.bench_function("tail_index_50k_samples", |b| {
        b.iter(|| criterion::black_box(tail_index(&samples)))
    });
    group.finish();
}

criterion_group!(
    micro,
    policy_decision_latency,
    sample_store_prediction,
    grass_choose_warmed,
    simulator_throughput,
    job_runtime_upkeep,
    workload_generation,
    hill_estimation
);
criterion_main!(micro);
