//! Headline-gain experiments: the §2.3 potential-gains study, the Figure 5–8 accuracy
//! and speed-up comparisons, and the §6.2.2 exact-job result.

use grass_metrics::{Report, Table};
use grass_workload::{BoundSpec, Framework, GeneratedWorkload, TraceProfile, WorkloadConfig};

use crate::common::{
    compare, compare_outcomes, improvement_cell, run_policy, size_bin_rows, workload, ExpConfig,
    PolicyKind,
};

/// All four trace × framework combinations the paper evaluates.
pub fn workload_combos() -> Vec<(TraceProfile, &'static str)> {
    vec![
        (TraceProfile::facebook(Framework::Hadoop), "Facebook-Hadoop"),
        (TraceProfile::bing(Framework::Hadoop), "Bing-Hadoop"),
        (TraceProfile::facebook(Framework::Spark), "Facebook-Spark"),
        (TraceProfile::bing(Framework::Spark), "Bing-Spark"),
    ]
}

/// Build one "improvement by job-size bin" table: one row per size bin, one column per
/// (candidate, baseline) pair.
fn size_bin_table(
    exp: &ExpConfig,
    title: impl Into<String>,
    wl: &WorkloadConfig,
    baselines: &[PolicyKind],
    candidates: &[PolicyKind],
) -> Table {
    let source = GeneratedWorkload::new(*wl);
    // Collect outcomes once per distinct policy.
    let mut policies: Vec<PolicyKind> = Vec::new();
    for p in baselines.iter().chain(candidates.iter()) {
        if !policies.contains(p) {
            policies.push(p.clone());
        }
    }
    let outcome_sets: Vec<_> = policies
        .iter()
        .map(|p| run_policy(exp, &source, p))
        .collect();
    let lookup = |p: &PolicyKind| {
        let idx = policies.iter().position(|q| q == p).unwrap();
        &outcome_sets[idx]
    };

    let mut columns = vec!["Job Bin".to_string()];
    let mut comparisons = Vec::new();
    for candidate in candidates {
        for baseline in baselines {
            let column = if candidates.len() == 1 {
                format!("Baseline:{}", baseline.label())
            } else if baselines.len() == 1 {
                candidate.label()
            } else {
                format!("{} vs {}", candidate.label(), baseline.label())
            };
            columns.push(column);
            comparisons.push(compare_outcomes(
                &source,
                baseline,
                candidate,
                lookup(baseline),
                lookup(candidate),
            ));
        }
    }
    size_bin_rows(
        title,
        columns.iter().map(String::as_str).collect(),
        &comparisons,
    )
}

/// §2.3 "Potential Gains": improvement of the oracle scheduler over LATE (Facebook)
/// and Mantri (Bing) for deadline- and error-bound jobs.
pub fn potential_gains(exp: &ExpConfig) -> Report {
    let mut report = Report::new("sec2-3");
    for (profile, name, baseline) in [
        (
            TraceProfile::facebook(Framework::Hadoop),
            "Facebook",
            PolicyKind::Late,
        ),
        (
            TraceProfile::bing(Framework::Hadoop),
            "Bing",
            PolicyKind::Mantri,
        ),
    ] {
        let mut table = Table::new(
            format!("Potential gains of the optimal scheduler ({name})"),
            vec!["Bound", "Improvement (%)"],
        );
        for (bound, label) in [
            (BoundSpec::paper_deadlines(), "deadline-bound accuracy"),
            (BoundSpec::paper_errors(), "error-bound duration"),
        ] {
            let source = GeneratedWorkload::new(workload(exp, profile, bound));
            let cmp = compare(exp, &source, &baseline, &PolicyKind::Oracle);
            table.push_row(label, vec![improvement_cell(cmp.overall)]);
        }
        report.add_table(table);
    }
    report
}

/// Figure 5: accuracy improvement of GRASS for deadline-bound jobs, split by job-size
/// bin, with LATE and Mantri as baselines, for all four workload combinations.
pub fn fig5(exp: &ExpConfig) -> Report {
    let mut report = Report::new("fig5");
    for (profile, name) in workload_combos() {
        let wl = workload(exp, profile, BoundSpec::paper_deadlines());
        report.add_table(size_bin_table(
            exp,
            format!("Figure 5 ({name}): deadline-bound accuracy improvement of GRASS"),
            &wl,
            &[PolicyKind::Late, PolicyKind::Mantri],
            &[PolicyKind::grass()],
        ));
    }
    report
}

/// Figure 6: GRASS's overall gains (vs LATE) binned by deadline slack factor (6a) and
/// by error bound (6b), for the Facebook and Bing Hadoop workloads.
pub fn fig6(exp: &ExpConfig) -> Report {
    let mut report = Report::new("fig6");

    // 6a: deadline bins (slack factor over the ideal duration).
    let deadline_bins: &[(f64, f64, &str)] = &[
        (0.02, 0.05, "2-5"),
        (0.06, 0.10, "6-10"),
        (0.11, 0.15, "11-15"),
        (0.16, 0.20, "16-20"),
    ];
    let mut table_a = Table::new(
        "Figure 6a: accuracy improvement vs LATE, binned by deadline slack (%)",
        vec!["Deadline (%) Bin", "Facebook", "Bing"],
    );
    for (lo, hi, label) in deadline_bins {
        let mut cells = Vec::new();
        for profile in [
            TraceProfile::facebook(Framework::Hadoop),
            TraceProfile::bing(Framework::Hadoop),
        ] {
            let wl = workload(
                exp,
                profile,
                BoundSpec::DeadlineRange {
                    min_factor: *lo,
                    max_factor: *hi,
                },
            );
            let source = GeneratedWorkload::new(wl);
            let cmp = compare(exp, &source, &PolicyKind::Late, &PolicyKind::grass());
            cells.push(improvement_cell(cmp.overall));
        }
        table_a.push_row(*label, cells);
    }
    report.add_table(table_a);

    // 6b: error bins.
    let error_bins: &[(f64, f64, &str)] = &[
        (0.05, 0.10, "5-10"),
        (0.11, 0.15, "11-15"),
        (0.16, 0.20, "16-20"),
        (0.21, 0.25, "21-25"),
        (0.26, 0.30, "26-30"),
    ];
    let mut table_b = Table::new(
        "Figure 6b: duration improvement vs LATE, binned by error bound (%)",
        vec!["Error (%) Bin", "Facebook", "Bing"],
    );
    for (lo, hi, label) in error_bins {
        let mut cells = Vec::new();
        for profile in [
            TraceProfile::facebook(Framework::Hadoop),
            TraceProfile::bing(Framework::Hadoop),
        ] {
            let wl = workload(exp, profile, BoundSpec::ErrorRange { min: *lo, max: *hi });
            let source = GeneratedWorkload::new(wl);
            let cmp = compare(exp, &source, &PolicyKind::Late, &PolicyKind::grass());
            cells.push(improvement_cell(cmp.overall));
        }
        table_b.push_row(*label, cells);
    }
    report.add_table(table_b);
    report
}

/// Figure 7: speed-up of error-bound jobs, split by job-size bin, with LATE and Mantri
/// as baselines, for all four workload combinations.
pub fn fig7(exp: &ExpConfig) -> Report {
    let mut report = Report::new("fig7");
    for (profile, name) in workload_combos() {
        let wl = workload(exp, profile, BoundSpec::paper_errors());
        report.add_table(size_bin_table(
            exp,
            format!("Figure 7 ({name}): error-bound duration improvement of GRASS"),
            &wl,
            &[PolicyKind::Late, PolicyKind::Mantri],
            &[PolicyKind::grass()],
        ));
    }
    report
}

/// Figure 8: GRASS against the optimal (oracle) scheduler, Facebook workload on the
/// Spark profile, both improvements measured over LATE.
pub fn fig8(exp: &ExpConfig) -> Report {
    let mut report = Report::new("fig8");
    let profile = TraceProfile::facebook(Framework::Spark);
    for (bound, label) in [
        (
            BoundSpec::paper_deadlines(),
            "Figure 8a: deadline-bound jobs",
        ),
        (BoundSpec::paper_errors(), "Figure 8b: error-bound jobs"),
    ] {
        let wl = workload(exp, profile, bound);
        report.add_table(size_bin_table(
            exp,
            format!("{label} (Facebook workload, Spark): improvement over LATE"),
            &wl,
            &[PolicyKind::Late],
            &[PolicyKind::grass(), PolicyKind::Oracle],
        ));
    }
    report
}

/// §6.2.2: exact jobs (error bound of zero) — GRASS as a unified straggler-mitigation
/// solution, improvement in average job duration over LATE and Mantri.
pub fn exact_jobs(exp: &ExpConfig) -> Report {
    let mut report = Report::new("exact");
    for (profile, name) in [
        (TraceProfile::facebook(Framework::Hadoop), "Facebook-Hadoop"),
        (TraceProfile::facebook(Framework::Spark), "Facebook-Spark"),
    ] {
        let wl = workload(exp, profile, BoundSpec::Exact);
        report.add_table(size_bin_table(
            exp,
            format!("Exact jobs ({name}): duration improvement of GRASS"),
            &wl,
            &[PolicyKind::Late, PolicyKind::Mantri],
            &[PolicyKind::grass()],
        ));
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::metric_for;

    #[test]
    fn combos_cover_the_four_workloads() {
        let combos = workload_combos();
        assert_eq!(combos.len(), 4);
        let names: Vec<&str> = combos.iter().map(|(_, n)| *n).collect();
        assert!(names.contains(&"Facebook-Hadoop"));
        assert!(names.contains(&"Bing-Spark"));
    }

    #[test]
    fn workload_uses_experiment_scale() {
        let exp = ExpConfig::tiny();
        let wl = workload(
            &exp,
            TraceProfile::facebook(Framework::Hadoop),
            BoundSpec::paper_deadlines(),
        );
        assert_eq!(wl.num_jobs, exp.jobs_per_run);
        assert!(wl.expected_share >= 4);
        assert_eq!(metric_for(&wl), grass_metrics::Metric::Accuracy);
    }

    #[test]
    fn fig8_quick_run_produces_both_tables() {
        let mut exp = ExpConfig::tiny();
        exp.jobs_per_run = 8;
        let report = fig8(&exp);
        assert_eq!(report.tables.len(), 2);
        for t in &report.tables {
            // Columns: Job Bin + GRASS + Optimal.
            assert_eq!(t.columns.len(), 3);
            assert!(t.value("overall", "GRASS").is_some());
            assert!(t.value("overall", "Optimal").is_some());
        }
    }
}
