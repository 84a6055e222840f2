//! The paper's figures (2, 3, 4, 9, 10, 11), the §7.1 hash table and
//! the abort-cause diagnostic.

use super::{slug, Driver};
use crate::metrics::{cause_histogram_json, Json};
use crate::report::{f2, f3, ratio, Table};
use crate::sweep::Cell;
use crate::{run_hash_bench, run_tree_bench, run_tree_bench_avg, size_sweep};
use crate::{HashBenchSpec, TreeBenchSpec};
use elision_core::{LockKind, SchemeConfig, SchemeKind};
use elision_htm::HtmConfig;
use elision_sim::AbortCause;
use elision_stamp::{run_kernel, KernelKind, StampParams};
use elision_structures::OpMix;

/// The four software schemes figure 10 and the hash table compare
/// against plain HLE.
const SOFTWARE_SCHEMES: [SchemeKind; 4] =
    [SchemeKind::HleRetries, SchemeKind::HleScm, SchemeKind::OptSlr, SchemeKind::SlrScm];

/// A table whose first column is `first`, followed by one column per
/// scheme label.
fn scheme_table(first: &str, schemes: &[SchemeKind]) -> Table {
    let mut headers = vec![first];
    headers.extend(schemes.iter().map(|s| s.label()));
    Table::new(&headers)
}

/// Figure 2 — the lemming effect under plain HLE.
///
/// For each tree size (8 threads, 10/10/80 insert/delete/lookup) and for
/// the TTAS and MCS locks, reports:
///
/// * speedup over the standard version of the same lock (top panel),
/// * average execution attempts per critical section, `(A+N+S)/(N+S)`
///   (middle panel, "Total Work"),
/// * fraction of operations completing non-speculatively, `N/(N+S)`, and
///   the fraction of TTAS arrivals that found the lock held (bottom
///   panel).
///
/// Paper expectation: MCS executes virtually everything non-speculatively
/// (fraction ~1, no speedup); TTAS recovers, needing 2-3.5 attempts per
/// operation on small trees with 30-70% completing speculatively, and
/// nearly all speculative on large trees.
pub(super) fn fig2_lemming(d: &mut Driver<'_>) {
    let args = d.args;
    let sizes = size_sweep(args.quick, args.full);
    let ops = if args.quick { 300 } else { 1000 };
    // --chaos runs the whole figure under the named fault profile at a
    // moderate intensity (level 2 of 3).
    let (fault_plan, htm_faults) = args.chaos.at_intensity(2, 0xC4A0);

    println!("== Figure 2: impact of aborts under plain HLE ==");
    println!("{} threads, 10% insert / 10% delete / 80% lookup", args.threads);
    println!("chaos profile: {}\n", args.chaos);

    let mut cells = Vec::new();
    for &size in &sizes {
        for lock in [LockKind::Ttas, LockKind::Mcs] {
            cells.push(Cell::new(format!("{size}/{}", lock.label()), args.threads, move || {
                let mut spec =
                    TreeBenchSpec::new(SchemeKind::Hle, lock, args.threads, size, OpMix::MODERATE);
                spec.ops_per_thread = ops;
                spec.faults = fault_plan;
                spec.htm = spec.htm.with_faults(htm_faults);
                let hle = run_tree_bench_avg(&spec, args.seeds);
                let mut std_spec = spec;
                std_spec.scheme = SchemeKind::Standard;
                let std = run_tree_bench_avg(&std_spec, args.seeds);
                (size, lock, hle, std)
            }));
        }
    }
    let outcome = d.sweep(cells);

    let mut table = Table::new(&[
        "size",
        "lock",
        "speedup-vs-std",
        "attempts/op",
        "frac-nonspec",
        "frac-arrive-held",
    ]);
    let mut report = d.metrics();
    for (size, lock, hle, std) in &outcome.results {
        table.row(vec![
            size.to_string(),
            lock.label().to_string(),
            f2(hle.throughput / std.throughput),
            f2(hle.counters.attempts_per_op()),
            f3(hle.counters.frac_nonspeculative()),
            f3(hle.counters.frac_arrived_lock_held()),
        ]);
        report.push_result(
            vec![
                ("size", Json::Uint(*size as u64)),
                ("lock", Json::Str(lock.label().to_string())),
                ("speedup_vs_std", Json::Float(hle.throughput / std.throughput)),
                ("frac_arrived_lock_held", Json::Float(hle.counters.frac_arrived_lock_held())),
            ],
            hle,
        );
    }
    d.table(&table, "fig2_lemming");
    d.finish(&report.to_json());

    println!(
        "\nPaper shape check: MCS frac-nonspec ~1 at every size; TTAS needs \
         2-3.5 attempts/op on small trees but keeps 30-70% speculative, \
         approaching 0 nonspec on large trees."
    );
}

/// Figure 3 — serialization dynamics over time under plain HLE.
///
/// Runs the size-64 tree at 8 threads (10/10/80 mix) under HLE with the
/// MCS and TTAS locks, splits the execution into ~200 logical-time slots
/// (the paper's 1 ms slots), and prints per-slot normalized throughput
/// and per-slot fraction of non-speculative completions.
///
/// Paper expectation: MCS runs every slot almost fully non-speculatively;
/// TTAS is mostly speculative with serialization bursts in which
/// throughput drops by up to ~2.5x.
pub(super) fn fig3_dynamics(d: &mut Driver<'_>) {
    const TREE_SIZE: usize = 64;
    const SLOTS: u64 = 60;
    let args = d.args;
    let ops = if args.quick { 500 } else { 2000 };

    println!("== Figure 3: serialization dynamics over time (HLE, size-64 tree) ==\n");
    let mut cells = Vec::new();
    for lock in [LockKind::Mcs, LockKind::Ttas] {
        cells.push(Cell::new(lock.label(), args.threads, move || {
            let mut spec =
                TreeBenchSpec::new(SchemeKind::Hle, lock, args.threads, TREE_SIZE, OpMix::MODERATE);
            spec.ops_per_thread = ops;
            // Calibrate the slot width from an untimed first run.
            let calib = run_tree_bench(&spec);
            spec.slot_cycles = Some((calib.makespan / SLOTS).max(1));
            (lock, run_tree_bench(&spec))
        }));
    }
    let outcome = d.sweep(cells);

    let mut report = d.metrics();
    for (lock, r) in &outcome.results {
        let slots = r.slots.as_ref().expect("slot series requested");
        let causes = r.cause_slots.as_ref().expect("cause slot series requested");

        println!("--- {} lock ---", lock.label());
        let mut table = Table::new(&["slot", "norm-throughput", "frac-nonspec"]);
        for i in 0..slots.len() {
            table.row(vec![
                i.to_string(),
                f2(slots.normalized_throughput[i]),
                f3(slots.frac_nonspec[i]),
            ]);
            report.push_row(Json::obj(vec![
                ("lock", Json::Str(lock.label().to_string())),
                ("slot", Json::Uint(i as u64)),
                ("norm_throughput", Json::Float(slots.normalized_throughput[i])),
                ("frac_nonspeculative", Json::Float(slots.frac_nonspec[i])),
                (
                    "abort_causes",
                    cause_histogram_json(&causes.slots.get(i).copied().unwrap_or_default()),
                ),
            ]));
        }
        d.table(&table, &format!("fig3_dynamics_{}", lock.label().to_lowercase()));
        let avg_nonspec: f64 = slots.frac_nonspec.iter().sum::<f64>() / slots.len().max(1) as f64;
        println!(
            "worst throughput dip: {:.2}x below average; mean per-slot frac-nonspec: {:.3}\n",
            slots.worst_slowdown(),
            avg_nonspec
        );
    }
    d.finish(&report.to_json());
    println!(
        "Paper shape check: MCS per-slot frac-nonspec ~1 throughout; TTAS mostly \
         speculative with bursts of serialization and throughput dips up to ~2.5x."
    );
}

/// Figure 4 — HLE speedup over standard locking, by contention level.
///
/// For each of the paper's three contention levels (lookups-only,
/// 10/10/80, 50/50) and each tree size, reports the throughput of the
/// HLE version of each lock normalized to the standard (non-speculative)
/// version of the same lock, at 8 threads.
///
/// Paper expectation: HLE-MCS gains nothing (speedup ~1 or below) at all
/// sizes; HLE-TTAS gains little on small trees but large speedups (up to
/// ~14x in the paper's lookup-only workload) as the tree grows.
pub(super) fn fig4_hle_speedup(d: &mut Driver<'_>) {
    let args = d.args;
    let sizes = size_sweep(args.quick, args.full);
    let ops = if args.quick { 300 } else { 1000 };

    println!("== Figure 4: HLE speedup over the standard version of each lock ==");
    println!("{} threads; baseline y=1 is the standard lock\n", args.threads);

    let mut cells = Vec::new();
    for (label, mix) in OpMix::LEVELS {
        for &size in &sizes {
            for lock in [LockKind::Ttas, LockKind::Mcs] {
                cells.push(Cell::new(
                    format!("{label}/{size}/{}", lock.label()),
                    args.threads,
                    move || {
                        let mut spec =
                            TreeBenchSpec::new(SchemeKind::Hle, lock, args.threads, size, mix);
                        spec.ops_per_thread = ops;
                        let hle = run_tree_bench_avg(&spec, args.seeds);
                        let mut std_spec = spec;
                        std_spec.scheme = SchemeKind::Standard;
                        let std = run_tree_bench_avg(&std_spec, args.seeds);
                        (hle, std)
                    },
                ));
            }
        }
    }
    let outcome = d.sweep(cells);

    let mut report = d.metrics();
    let mut next = outcome.results.iter();
    for (label, _mix) in OpMix::LEVELS {
        println!("--- {label} ---");
        let mut table = Table::new(&["size", "TTAS", "MCS"]);
        for &size in &sizes {
            let mut cells = vec![size.to_string()];
            for lock in [LockKind::Ttas, LockKind::Mcs] {
                let (hle, std) = next.next().expect("one result per cell");
                cells.push(f2(hle.throughput / std.throughput));
                report.push_result(
                    vec![
                        ("workload", Json::Str(label.to_string())),
                        ("size", Json::Uint(size as u64)),
                        ("lock", Json::Str(lock.label().to_string())),
                        ("speedup_vs_std", Json::Float(hle.throughput / std.throughput)),
                    ],
                    hle,
                );
            }
            table.row(cells);
        }
        d.table(&table, &format!("fig4_hle_speedup_{}", slug(label)));
        println!();
    }
    d.finish(&report.to_json());
    println!(
        "Paper shape check: MCS stays at ~1x everywhere; TTAS grows with tree size, \
         highest in the lookups-only workload."
    );
}

/// Figure 9 — thread scaling of all six schemes on a 128-node tree.
///
/// For 1, 2, 4 and 8 threads under moderate contention (10/10/80),
/// reports each scheme's throughput normalized to a single thread running
/// with no locking at all (the paper's y=1 baseline), for the TTAS and
/// MCS locks.
///
/// Paper expectation: plain HLE-MCS does not scale at all; plain
/// HLE-TTAS stops scaling past 4 threads; HLE-retries rescues TTAS but
/// not MCS at 8 threads; the software-assisted schemes (HLE-SCM, opt
/// SLR, SLR-SCM) scale with the thread count for both locks, closing the
/// gap between MCS and TTAS.
pub(super) fn fig9_scaling(d: &mut Driver<'_>) {
    const TREE_SIZE: usize = 128;
    let args = d.args;
    let ops = if args.quick { 300 } else { 1200 };
    let thread_counts: Vec<usize> =
        [1usize, 2, 4, 8].into_iter().filter(|&t| t <= args.threads.max(8)).collect();

    println!("== Figure 9: scheme scaling on a 128-node tree ==");
    println!("10% insert / 10% delete / 80% lookup; baseline y=1 is 1 thread, no locking\n");

    // The common baseline (single-threaded, lock-free) is itself a sweep
    // cell; every other cell is normalized to it afterwards.
    let mut cells = vec![Cell::new("baseline/nolock/1", 1, move || {
        let mut base_spec =
            TreeBenchSpec::new(SchemeKind::NoLock, LockKind::Ttas, 1, TREE_SIZE, OpMix::MODERATE);
        base_spec.ops_per_thread = ops;
        run_tree_bench_avg(&base_spec, args.seeds)
    })];
    for lock in [LockKind::Ttas, LockKind::Mcs] {
        for &t in &thread_counts {
            for scheme in SchemeKind::ALL {
                cells.push(Cell::new(
                    format!("{}/{t}/{}", lock.label(), scheme.label()),
                    t,
                    move || {
                        let mut spec =
                            TreeBenchSpec::new(scheme, lock, t, TREE_SIZE, OpMix::MODERATE);
                        spec.ops_per_thread = ops;
                        run_tree_bench_avg(&spec, args.seeds)
                    },
                ));
            }
        }
    }
    let outcome = d.sweep(cells);

    let base = outcome.results[0].throughput;
    let mut report = d.metrics();
    let mut next = outcome.results[1..].iter();
    for lock in [LockKind::Ttas, LockKind::Mcs] {
        println!("--- {} lock ---", lock.label());
        let mut table = scheme_table("threads", &SchemeKind::ALL);
        for &t in &thread_counts {
            let mut cells = vec![t.to_string()];
            for scheme in SchemeKind::ALL {
                let r = next.next().expect("one result per cell");
                cells.push(f2(ratio(r.throughput, base)));
                report.push_result(
                    vec![
                        ("lock", Json::Str(lock.label().to_string())),
                        ("threads", Json::Uint(t as u64)),
                        ("scheme", Json::Str(scheme.label().to_string())),
                        ("norm_throughput", Json::Float(ratio(r.throughput, base))),
                    ],
                    r,
                );
            }
            table.row(cells);
        }
        d.table(&table, &format!("fig9_scaling_{}", lock.label().to_lowercase()));
        println!();
    }
    d.finish(&report.to_json());
    println!(
        "Paper shape check: HLE-MCS flat at all thread counts; software-assisted \
         schemes scale with threads on both locks and close the MCS/TTAS gap."
    );
}

/// Figure 10 — the software schemes across the full workload spectrum.
///
/// For each contention level and tree size (8 threads), reports the
/// throughput of HLE-retries, HLE-SCM, opt SLR and SLR-SCM normalized to
/// the *plain HLE version of the same lock* (the paper's y=1 baseline).
///
/// Paper expectation: on TTAS the software schemes win up to ~3.5x under
/// contention (HLE-SCM ahead on small trees) and ~1x on lookups-only; on
/// MCS everything wins 2-10x across the board because plain HLE-MCS is
/// fully serialized — and HLE-retries helps TTAS but *not* MCS.
pub(super) fn fig10_spectrum(d: &mut Driver<'_>) {
    let args = d.args;
    let sizes = size_sweep(args.quick, args.full);
    let ops = if args.quick { 300 } else { 1000 };

    println!("== Figure 10: software schemes vs the HLE baseline of each lock ==");
    println!("{} threads; baseline y=1 is plain HLE with the same lock\n", args.threads);

    // Each (lock, mix, size) row is a chunk of 1 + SOFTWARE_SCHEMES.len()
    // cells: the plain-HLE baseline followed by the four software schemes.
    let mut cells = Vec::new();
    for lock in [LockKind::Ttas, LockKind::Mcs] {
        for (label, mix) in OpMix::LEVELS {
            for &size in &sizes {
                for scheme in [SchemeKind::Hle].into_iter().chain(SOFTWARE_SCHEMES) {
                    cells.push(Cell::new(
                        format!("{}/{label}/{size}/{}", lock.label(), scheme.label()),
                        args.threads,
                        move || {
                            let mut spec =
                                TreeBenchSpec::new(scheme, lock, args.threads, size, mix);
                            spec.ops_per_thread = ops;
                            run_tree_bench_avg(&spec, args.seeds)
                        },
                    ));
                }
            }
        }
    }
    let outcome = d.sweep(cells);

    let mut report = d.metrics();
    let mut chunks = outcome.results.chunks_exact(1 + SOFTWARE_SCHEMES.len());
    for lock in [LockKind::Ttas, LockKind::Mcs] {
        for (label, _mix) in OpMix::LEVELS {
            println!("--- {} lock, {label} ---", lock.label());
            let mut table = scheme_table("size", &SOFTWARE_SCHEMES);
            for &size in &sizes {
                let row = chunks.next().expect("one chunk per row");
                let hle = &row[0];
                let mut cells = vec![size.to_string()];
                for (scheme, r) in SOFTWARE_SCHEMES.iter().zip(&row[1..]) {
                    cells.push(f2(ratio(r.throughput, hle.throughput)));
                    report.push_result(
                        vec![
                            ("lock", Json::Str(lock.label().to_string())),
                            ("workload", Json::Str(label.to_string())),
                            ("size", Json::Uint(size as u64)),
                            ("scheme", Json::Str(scheme.label().to_string())),
                            ("speedup_vs_hle", Json::Float(ratio(r.throughput, hle.throughput))),
                        ],
                        r,
                    );
                }
                table.row(cells);
            }
            d.table(&table, &format!("fig10_{}_{}", lock.label().to_lowercase(), slug(label)));
            println!();
        }
    }
    d.finish(&report.to_json());
    println!(
        "Paper shape check: MCS rows sit well above 1 everywhere (2-10x); TTAS rows \
         are ~1 on lookups-only and rise with contention (up to ~3.5x), with \
         HLE-SCM strongest on small trees."
    );
}

/// Figure 11 — STAMP applications under every scheme (lower is better).
///
/// For each of the nine STAMP workloads (bayes excluded, as in the
/// paper), runs the six schemes at 8 threads over the TTAS and MCS locks
/// and reports simulated runtime normalized to the standard
/// (non-speculative) version of the same lock.
///
/// Paper expectation: plain HLE gains nothing on MCS but up to ~2x on
/// TTAS (intruder); HLE-SCM rescues MCS (up to ~2.5x); opt SLR is the
/// overall best on most tests (up to ~4x over standard); HLE-retries
/// tracks SLR on TTAS but collapses to ~standard on MCS for genome, yada
/// and vacation; SLR-SCM only helps vacation-low (~15%).
pub(super) fn fig11_stamp(d: &mut Driver<'_>) {
    let args = d.args;
    let params = if args.quick { StampParams::quick() } else { StampParams::full() };

    println!("== Figure 11: STAMP normalized runtime (lower is better) ==");
    println!("{} threads; y=1 is the standard version of the same lock\n", args.threads);

    // One cell per (lock, kernel, scheme); the cell averages the kernel's
    // makespan over the seeds and the post-pass normalizes each chunk to
    // its Standard column.
    let mut cells = Vec::new();
    for lock in [LockKind::Ttas, LockKind::Mcs] {
        for kernel in KernelKind::ALL {
            for scheme in SchemeKind::ALL {
                cells.push(Cell::new(
                    format!("{}/{}/{}", lock.label(), kernel.label(), scheme.label()),
                    args.threads,
                    move || {
                        let mut total = 0u64;
                        for k in 0..args.seeds {
                            let mut p = params;
                            p.seed = params.seed.wrapping_add(k * 7919);
                            let run = run_kernel(
                                kernel,
                                scheme,
                                lock,
                                args.threads,
                                &p,
                                HtmConfig::haswell(),
                            );
                            total += run.makespan;
                        }
                        total as f64 / args.seeds as f64
                    },
                ));
            }
        }
    }
    let outcome = d.sweep(cells);

    let mut report = d.metrics();
    let mut chunks = outcome.results.chunks_exact(SchemeKind::ALL.len());
    for lock in [LockKind::Ttas, LockKind::Mcs] {
        println!("--- {} lock ---", lock.label());
        let mut table = scheme_table("test", &SchemeKind::ALL);
        for kernel in KernelKind::ALL {
            let times = chunks.next().expect("one chunk per kernel");
            let baseline = SchemeKind::ALL
                .iter()
                .zip(times)
                .find(|(s, _)| **s == SchemeKind::Standard)
                .map(|(_, t)| *t)
                .expect("Standard scheme in every chunk");
            let mut cells = vec![kernel.label().to_string()];
            for (scheme, t) in SchemeKind::ALL.iter().zip(times) {
                cells.push(f3(ratio(*t, baseline)));
                report.push_row(Json::obj(vec![
                    ("lock", Json::Str(lock.label().to_string())),
                    ("test", Json::Str(kernel.label().to_string())),
                    ("scheme", Json::Str(scheme.label().to_string())),
                    ("mean_makespan_cycles", Json::Float(*t)),
                    ("norm_runtime", Json::Float(ratio(*t, baseline))),
                ]));
            }
            table.row(cells);
        }
        d.table(&table, &format!("fig11_stamp_{}", lock.label().to_lowercase()));
        println!();
    }
    d.finish(&report.to_json());
    println!(
        "Paper shape check: HLE column ~1 for MCS but <1 for TTAS on several tests; \
         HLE-SCM well below 1 on MCS; opt SLR lowest on most rows for both locks."
    );
}

/// §7.1's second data-structure benchmark: the hash table.
///
/// The paper reports that hash-table results are comparable to the
/// red-black tree, "zooming in" on the short-transaction end of the
/// spectrum. This reproduces that comparison: all schemes over both
/// locks at the three contention levels, normalized to plain HLE of the
/// same lock.
pub(super) fn hashtable_bench(d: &mut Driver<'_>) {
    let args = d.args;
    let size = if args.quick { 128 } else { 512 };
    let ops = if args.quick { 300 } else { 1000 };
    let (fault_plan, htm_faults) = args.chaos.at_intensity(2, 0xC4A0);

    println!("== Hash-table benchmark (short transactions; §7.1) ==");
    println!(
        "{} threads, {size}-entry table; baseline y=1 is plain HLE of the same lock\n",
        args.threads
    );

    // Each (lock, mix) row is a chunk: plain HLE first, then the four
    // software schemes normalized to it.
    let mut cells = Vec::new();
    for lock in [LockKind::Ttas, LockKind::Mcs] {
        for (label, mix) in OpMix::LEVELS {
            for scheme in [SchemeKind::Hle].into_iter().chain(SOFTWARE_SCHEMES) {
                cells.push(Cell::new(
                    format!("{}/{label}/{}", lock.label(), scheme.label()),
                    args.threads,
                    move || {
                        run_hash_bench(&HashBenchSpec {
                            scheme,
                            lock,
                            threads: args.threads,
                            size,
                            mix,
                            ops_per_thread: ops,
                            htm: HtmConfig::haswell().with_faults(htm_faults),
                            seed: 42,
                            scheme_cfg: SchemeConfig::paper(),
                            faults: fault_plan,
                        })
                    },
                ));
            }
        }
    }
    let outcome = d.sweep(cells);

    let mut report = d.metrics();
    let mut chunks = outcome.results.chunks_exact(1 + SOFTWARE_SCHEMES.len());
    for lock in [LockKind::Ttas, LockKind::Mcs] {
        println!("--- {} lock ---", lock.label());
        let mut table = scheme_table("mix", &SOFTWARE_SCHEMES);
        for (label, _mix) in OpMix::LEVELS {
            let row = chunks.next().expect("one chunk per mix");
            let hle = &row[0];
            let mut cells = vec![label.to_string()];
            for (scheme, r) in SOFTWARE_SCHEMES.iter().zip(&row[1..]) {
                cells.push(f2(ratio(r.throughput, hle.throughput)));
                report.push_result(
                    vec![
                        ("lock", Json::Str(lock.label().to_string())),
                        ("mix", Json::Str(label.to_string())),
                        ("scheme", Json::Str(scheme.label().to_string())),
                        ("speedup_vs_hle", Json::Float(ratio(r.throughput, hle.throughput))),
                    ],
                    r,
                );
            }
            table.row(cells);
        }
        d.table(&table, &format!("hashtable_{}", lock.label().to_lowercase()));
        println!();
    }
    d.finish(&report.to_json());
    println!(
        "Paper shape check: same ordering as the small-tree (short transaction) end \
         of Figure 10 — HLE-SCM strongest among the schemes, especially on MCS."
    );
}

/// Diagnostic — abort breakdown by *classified cause* for every
/// scheme/lock cell on one tree configuration. Not a paper figure; used
/// when analysing why a scheme serializes (data conflict vs lock-word
/// conflict vs capacity vs explicit vs injected).
///
/// Doubles as an end-to-end cross-check of the abort-cause taxonomy: for
/// every cell the classified cause counts must sum exactly to the number
/// of aborted attempts the scheme counters and the raw HTM statistics
/// both report. It panics if the accounting ever disagrees.
pub(super) fn diag_aborts(d: &mut Driver<'_>) {
    let args = d.args;
    let size = if args.quick { 128 } else { 2048 };
    let ops = if args.quick { 300 } else { 1000 };

    println!(
        "== Diagnostic: abort breakdown by cause ({size}-node tree, moderate contention) ==\n"
    );
    let mut cells = Vec::new();
    for lock in [LockKind::Ttas, LockKind::Mcs] {
        for scheme in SchemeKind::ALL {
            cells.push(Cell::new(
                format!("{}/{}", lock.label(), scheme.label()),
                args.threads,
                move || {
                    let mut spec =
                        TreeBenchSpec::new(scheme, lock, args.threads, size, OpMix::MODERATE);
                    spec.ops_per_thread = ops;
                    run_tree_bench(&spec)
                },
            ));
        }
    }
    let outcome = d.sweep(cells);

    let mut headers = vec!["lock", "scheme", "frac-nonspec", "attempts/op", "aborted"];
    headers.extend(AbortCause::ALL.iter().map(|c| c.label()));
    let mut table = Table::new(&headers);
    let mut report = d.metrics();
    let mut next = outcome.results.iter();
    for lock in [LockKind::Ttas, LockKind::Mcs] {
        for scheme in SchemeKind::ALL {
            let r = next.next().expect("one result per cell");

            // Taxonomy cross-check: every aborted attempt must carry
            // exactly one classified cause, and the scheme-level abort
            // counter must agree with the raw HTM abort statistics.
            let causes = r.counters.causes;
            assert_eq!(
                causes.total(),
                r.counters.aborted,
                "{lock}/{scheme}: cause counts must sum to aborted attempts"
            );
            assert_eq!(
                r.counters.aborted,
                r.txn_stats.aborts(),
                "{lock}/{scheme}: scheme abort count must match HTM abort count"
            );

            let mut row = vec![
                lock.label().to_string(),
                scheme.label().to_string(),
                f3(r.counters.frac_nonspeculative()),
                f2(r.counters.attempts_per_op()),
                r.counters.aborted.to_string(),
            ];
            row.extend(AbortCause::ALL.iter().map(|&c| causes.get(c).to_string()));
            table.row(row);
            report.push_result(
                vec![
                    ("lock", Json::Str(lock.label().to_string())),
                    ("scheme", Json::Str(scheme.label().to_string())),
                ],
                r,
            );
        }
    }
    table.print();
    println!("\ncause accounting verified: per-cell cause counts sum to aborted attempts");
    if let Some(dir) = &args.csv {
        table.write_csv(dir, "diag_aborts");
    }
    d.finish(&report.to_json());
}
