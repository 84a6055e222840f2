//! Ablations of the paper's design choices: spurious aborts, SCM
//! variants, the retry budget, grouped SCM and lock granularity.

use super::Driver;
use crate::metrics::Json;
use crate::report::{f2, f3, ratio, Table};
use crate::sweep::Cell;
use crate::{run_tree_bench_avg, CliArgs, TreeBenchSpec};
use elision_core::{make_grouped_scm, make_lock, make_scheme, make_scheme_with_aux};
use elision_core::{LockKind, Scheme, SchemeConfig, SchemeKind};
use elision_htm::{harness, HtmConfig, MemoryBuilder, VarId};
use elision_structures::{key_domain, OpMix, RbTree, TreeOp};
use std::sync::Arc;

/// Ablation — spurious aborts trigger the fair-lock lemming effect
/// (paper §3.1 / §7.1: "even in a read-only workload, the MCS lock
/// experiences a severe lemming effect due to spurious aborts").
///
/// Sweeps the injected spurious-abort rate on a lookups-only workload and
/// reports the fraction of non-speculative completions for HLE and
/// HLE-SCM over the MCS lock. With zero spurious aborts a read-only
/// workload never aborts; even a tiny rate collapses plain HLE-MCS.
pub(super) fn ablation_spurious(d: &mut Driver<'_>) {
    let args = d.args;
    let ops = if args.quick { 300 } else { 1000 };
    let rates = [0.0, 0.0005, 0.002, 0.01, 0.05];
    let schemes = [SchemeKind::Hle, SchemeKind::HleScm, SchemeKind::Standard];

    println!("== Ablation: spurious-abort rate vs the MCS lemming effect ==");
    println!("{} threads, 512-node tree, lookups only\n", args.threads);

    let mut cells = Vec::new();
    for &rate in &rates {
        for scheme in schemes {
            cells.push(Cell::new(format!("{rate}/{}", scheme.label()), args.threads, move || {
                let mut spec = TreeBenchSpec::new(
                    scheme,
                    LockKind::Mcs,
                    args.threads,
                    512,
                    OpMix::LOOKUP_ONLY,
                );
                spec.ops_per_thread = ops;
                spec.htm = HtmConfig::haswell().with_spurious(rate, 0.0);
                run_tree_bench_avg(&spec, args.seeds)
            }));
        }
    }
    let outcome = d.sweep(cells);

    let mut table = Table::new(&[
        "spurious/txn",
        "HLE frac-nonspec",
        "HLE-SCM frac-nonspec",
        "HLE speedup-vs-std",
        "HLE-SCM speedup-vs-std",
    ]);
    let mut report = d.metrics();
    let mut chunks = outcome.results.chunks_exact(schemes.len());
    for &rate in &rates {
        let chunk = chunks.next().expect("one chunk per rate");
        let (hle, scm, std) = (&chunk[0], &chunk[1], &chunk[2]);
        table.row(vec![
            format!("{rate}"),
            f3(hle.counters.frac_nonspeculative()),
            f3(scm.counters.frac_nonspeculative()),
            f2(ratio(hle.throughput, std.throughput)),
            f2(ratio(scm.throughput, std.throughput)),
        ]);
        for (scheme, r) in [("HLE", hle), ("HLE-SCM", scm)] {
            report.push_result(
                vec![
                    ("spurious_rate", Json::Float(rate)),
                    ("scheme", Json::Str(scheme.to_string())),
                    ("speedup_vs_std", Json::Float(ratio(r.throughput, std.throughput))),
                ],
                r,
            );
        }
    }
    d.table(&table, "ablation_spurious");
    d.finish(&report.to_json());
    println!(
        "\nShape check: HLE-MCS frac-nonspec jumps toward 1 as soon as the rate is \
         nonzero; HLE-SCM stays near 0 and keeps its speedup."
    );
}

/// Fill a 128-node tree, then run the moderate-contention workload under
/// `scheme` built by `build` on the same memory. Returns the per-thread
/// finish clocks and the measured makespan.
fn run_tree_128(
    args: &CliArgs,
    build: impl FnOnce(&mut MemoryBuilder, usize) -> Arc<Scheme>,
    ops: u64,
) -> (Vec<u64>, u64) {
    let size = 128;
    let domain = key_domain(size);
    let threads = args.threads;
    let mut b = MemoryBuilder::new();
    let tree = RbTree::new(&mut b, domain as usize + threads * 4 + 16, threads);
    let scheme = build(&mut b, threads);
    let mem = Arc::new(b.freeze(threads));
    tree.init(&mem);
    {
        let tree = tree.clone();
        harness::run(1, HtmConfig::deterministic(), 0xF111, Arc::clone(&mem), move |s| {
            let mut filled = 0;
            while filled < size {
                let key = s.rng.below(domain);
                if tree.insert(s, key).expect("fill") {
                    filled += 1;
                }
            }
        });
    }
    tree.rebalance_freelists(&mem);
    let (ends, _, makespan) = harness::run(threads, HtmConfig::haswell(), 42, mem, move |s| {
        for _ in 0..ops {
            let op = OpMix::MODERATE.draw(&mut s.rng);
            let key = s.rng.below(domain);
            scheme.execute(s, |s| match op {
                TreeOp::Insert => tree.insert(s, key).map(|_| ()),
                TreeOp::Delete => tree.remove(s, key).map(|_| ()),
                TreeOp::Lookup => tree.contains(s, key).map(|_| ()),
            });
        }
        s.now()
    });
    (ends, makespan)
}

/// Operations per thousand simulated cycles.
fn ops_per_kcycle(ops: u64, threads: usize, makespan: u64) -> f64 {
    ops as f64 * threads as f64 * 1000.0 / makespan.max(1) as f64
}

/// Ablation — SCM design choices.
///
/// Two knobs the paper discusses:
///
/// * **Auxiliary-lock fairness** (§6 "Preventing starvation"): the scheme
///   inherits the aux lock's fairness; a TTAS aux lock can starve
///   conflicting threads, a fair MCS aux lock cannot. We compare
///   throughput and the spread of per-thread completion times.
/// * **Eager vs lazy subscription and true HLE-in-RTM nesting** (§6
///   "Implementation and HLE compatibility"): Haswell could not nest HLE
///   inside RTM, forcing the read-and-check workaround. The simulator can
///   do both, quantifying what the workaround costs.
pub(super) fn ablation_scm(d: &mut Driver<'_>) {
    const AUX_LOCKS: [LockKind; 4] =
        [LockKind::Mcs, LockKind::Ticket, LockKind::Clh, LockKind::Ttas];
    const VARIANTS: [(&str, SchemeKind, bool); 3] = [
        ("eager check (paper's Haswell workaround)", SchemeKind::HleScm, false),
        ("true HLE-in-RTM nesting (paper's intended design)", SchemeKind::HleScm, true),
        ("lazy commit-time check (SLR-SCM)", SchemeKind::SlrScm, false),
    ];
    let args = d.args;
    let ops = if args.quick { 300 } else { 1000 };

    println!("== Ablation: SCM design choices (128-node tree, moderate contention) ==\n");

    // Throughput and per-thread end-time spread ratio of one build.
    let measure = move |build: &dyn Fn(&mut MemoryBuilder, usize) -> Arc<Scheme>| {
        let (ends, makespan) = run_tree_128(args, build, ops);
        let min = *ends.iter().min().expect("nonempty") as f64;
        let max = *ends.iter().max().expect("nonempty") as f64;
        (ops_per_kcycle(ops, args.threads, makespan), max / min.max(1.0))
    };
    let mut cells = Vec::new();
    for aux in AUX_LOCKS {
        cells.push(Cell::new(format!("aux/{}", aux.label()), args.threads, move || {
            measure(&|b, t| {
                make_scheme_with_aux(
                    SchemeKind::HleScm,
                    LockKind::Mcs,
                    aux,
                    SchemeConfig::paper(),
                    b,
                    t,
                )
            })
        }));
    }
    for (label, kind, nesting) in VARIANTS {
        cells.push(Cell::new(format!("subscription/{label}"), args.threads, move || {
            measure(&|b, t| {
                let cfg = SchemeConfig { scm_true_nesting: nesting, ..SchemeConfig::paper() };
                make_scheme_with_aux(kind, LockKind::Mcs, LockKind::Mcs, cfg, b, t)
            })
        }));
    }
    let outcome = d.sweep(cells);

    println!("--- auxiliary-lock fairness (HLE-SCM over MCS main lock) ---");
    let mut report = d.metrics();
    let mut table = Table::new(&["aux lock", "throughput (ops/kcycle)", "finish-time spread"]);
    for (aux, &(thr, spread)) in AUX_LOCKS.iter().zip(&outcome.results) {
        table.row(vec![aux.label().to_string(), f2(thr), f2(spread)]);
        report.push_row(Json::obj(vec![
            ("section", Json::Str("aux_fairness".to_string())),
            ("aux_lock", Json::Str(aux.label().to_string())),
            ("throughput", Json::Float(thr)),
            ("finish_time_spread", Json::Float(spread)),
        ]));
    }
    d.table(&table, "ablation_scm_aux");

    println!("\n--- subscription policy (SCM over MCS main lock) ---");
    let mut table = Table::new(&["variant", "throughput (ops/kcycle)"]);
    for ((label, _, _), &(thr, _)) in VARIANTS.iter().zip(&outcome.results[AUX_LOCKS.len()..]) {
        table.row(vec![label.to_string(), f2(thr)]);
        report.push_row(Json::obj(vec![
            ("section", Json::Str("subscription".to_string())),
            ("variant", Json::Str(label.to_string())),
            ("throughput", Json::Float(thr)),
        ]));
    }
    d.table(&table, "ablation_scm_subscription");
    d.finish(&report.to_json());
    println!(
        "\nShape check: fair aux locks keep the finish-time spread tight; the \
         workaround and true nesting should perform comparably (the paper argues \
         the workaround only loses the self-illusion of holding the lock)."
    );
}

/// Ablation — the `MAX_RETRIES` budget (paper §7 "Conflict management
/// tuning": the paper fixes 10 and reports other tunings only degrade
/// performance).
///
/// Sweeps the retry budget for HLE-retries, opt SLR and HLE-SCM on the
/// 128-node moderate-contention tree and reports throughput normalized to
/// the paper's budget of 10.
pub(super) fn ablation_retries(d: &mut Driver<'_>) {
    let args = d.args;
    let ops = if args.quick { 300 } else { 1000 };
    let budgets = [1u32, 2, 5, 10, 20, 50];

    println!("== Ablation: MAX_RETRIES budget (128-node tree, moderate contention) ==");
    println!("values normalized to the paper's budget of 10\n");

    let schemes = [SchemeKind::HleRetries, SchemeKind::OptSlr, SchemeKind::HleScm];
    let with_budget = move |scheme: SchemeKind, lock: LockKind, budget: u32| {
        let cfg = SchemeConfig { max_retries: budget, ..SchemeConfig::paper() };
        let build =
            |b: &mut MemoryBuilder, t| make_scheme_with_aux(scheme, lock, LockKind::Mcs, cfg, b, t);
        ops_per_kcycle(ops, args.threads, run_tree_128(args, build, ops).1)
    };
    // Per lock: one baseline (budget 10) cell per scheme, then the full
    // budget × scheme grid.
    let mut cells = Vec::new();
    for lock in [LockKind::Ttas, LockKind::Mcs] {
        for &scheme in &schemes {
            cells.push(Cell::new(
                format!("{}/base/{}", lock.label(), scheme.label()),
                args.threads,
                move || with_budget(scheme, lock, 10),
            ));
        }
        for &budget in &budgets {
            for &scheme in &schemes {
                cells.push(Cell::new(
                    format!("{}/{budget}/{}", lock.label(), scheme.label()),
                    args.threads,
                    move || with_budget(scheme, lock, budget),
                ));
            }
        }
    }
    let outcome = d.sweep(cells);

    let per_lock = schemes.len() * (1 + budgets.len());
    let mut report = d.metrics();
    let mut locks_chunks = outcome.results.chunks_exact(per_lock);
    for lock in [LockKind::Ttas, LockKind::Mcs] {
        let chunk = locks_chunks.next().expect("one chunk per lock");
        let (baseline, grid) = chunk.split_at(schemes.len());
        println!("--- {} main lock ---", lock.label());
        let mut table = Table::new(&["budget", "HLE-retries", "opt SLR", "HLE-SCM"]);
        let mut grid = grid.iter();
        for &budget in &budgets {
            let mut cells = vec![budget.to_string()];
            for (i, &scheme) in schemes.iter().enumerate() {
                let thr = *grid.next().expect("one result per budget/scheme");
                cells.push(f2(ratio(thr, baseline[i])));
                report.push_row(Json::obj(vec![
                    ("lock", Json::Str(lock.label().to_string())),
                    ("budget", Json::Uint(u64::from(budget))),
                    ("scheme", Json::Str(scheme.label().to_string())),
                    ("throughput", Json::Float(thr)),
                    ("norm_throughput", Json::Float(ratio(thr, baseline[i]))),
                ]));
            }
            table.row(cells);
        }
        d.table(&table, &format!("ablation_retries_{}", lock.label().to_lowercase()));
        println!();
    }
    d.finish(&report.to_json());
    println!("Shape check: performance is flat-ish around 10 and degrades at budget 1.");
}

/// Ablation — the grouped-SCM extension (paper §6 remark / §8 future
/// work): partition conflicting threads by the cache line the abort
/// occurred on, one auxiliary lock per group, so threads conflicting on
/// unrelated data do not serialize with each other.
///
/// The sweep covers multi-hot-spot workloads under one global lock,
/// varying the number of independent hot words, the thread count and the
/// critical-section length. The measured pattern: grouping wins when
/// several well-separated conflict groups are simultaneously active and
/// critical sections are long (the serializing path is the bottleneck),
/// and can *lose* when few groups are active — the global serialization
/// of classic SCM then usefully throttles wasted speculation, which is
/// exactly the trade-off the paper's remark anticipates.
pub(super) fn ablation_grouped(d: &mut Driver<'_>) {
    const CONFIGS: [(usize, usize, u64); 7] =
        [(1, 8, 40), (2, 6, 80), (2, 8, 40), (4, 8, 40), (4, 8, 80), (4, 12, 60), (8, 16, 60)];
    let args = d.args;
    let ops = if args.quick { 60 } else { 150 };

    println!("== Ablation: grouped SCM (conflict-line-aware auxiliary locks) ==");
    println!("speedup of grouped over single-aux SCM; >1 means grouping wins\n");

    // The makespan of `threads` threads each hammering hot word
    // `tid % hot_words` under single-aux or grouped SCM.
    let run = move |grouped: bool, hot_words: usize, threads: usize, work: u64| {
        let mut b = MemoryBuilder::new();
        let hot: Vec<VarId> = (0..hot_words).map(|_| b.alloc_isolated(0)).collect();
        let scheme = if grouped {
            make_grouped_scm(LockKind::Ttas, 16, SchemeConfig::paper(), &mut b, threads)
        } else {
            make_scheme(SchemeKind::HleScm, LockKind::Ttas, SchemeConfig::paper(), &mut b, threads)
        };
        let mem = b.freeze(threads);
        let hot2 = hot.clone();
        let (_, mem, makespan) =
            harness::run(threads, HtmConfig::deterministic(), 3, mem, move |s| {
                let target = hot2[s.tid() % hot2.len()];
                for _ in 0..ops {
                    scheme.execute(s, |s| {
                        let v = s.load(target)?;
                        s.work(work)?;
                        s.store(target, v + 1)
                    });
                }
            });
        let total: u64 = hot.iter().map(|&h| mem.read_direct(h)).sum();
        assert_eq!(total, threads as u64 * ops, "lost updates");
        makespan
    };
    let mut cells = Vec::new();
    for (hw, thr, work) in CONFIGS {
        for grouped in [false, true] {
            let kind = if grouped { "grouped" } else { "single" };
            cells.push(Cell::new(format!("{hw}w/{thr}t/{work}c/{kind}"), thr, move || {
                run(grouped, hw, thr, work)
            }));
        }
    }
    let outcome = d.sweep(cells);

    let mut table =
        Table::new(&["hot words", "threads", "cs work", "single-aux", "grouped", "speedup"]);
    let mut report = d.metrics();
    let mut pairs = outcome.results.chunks_exact(2);
    for (hw, thr, work) in CONFIGS {
        let pair = pairs.next().expect("one single/grouped pair per config");
        let (s, g) = (pair[0], pair[1]);
        table.row(vec![
            hw.to_string(),
            thr.to_string(),
            work.to_string(),
            s.to_string(),
            g.to_string(),
            f2(s as f64 / g as f64),
        ]);
        report.push_row(Json::obj(vec![
            ("hot_words", Json::Uint(hw as u64)),
            ("threads", Json::Uint(thr as u64)),
            ("cs_work", Json::Uint(work)),
            ("single_aux_makespan", Json::Uint(s)),
            ("grouped_makespan", Json::Uint(g)),
            ("speedup", Json::Float(s as f64 / g as f64)),
        ]));
    }
    d.table(&table, "ablation_grouped");
    d.finish(&report.to_json());
    println!(
        "\nShape check: speedup > 1 with many active groups and long critical \
         sections; <= 1 when conflicts collapse into one or two groups."
    );
}

/// Ablation — why the paper deliberately evaluates *coarse-grained*
/// benchmarks (§7: "Our experience with fine-grained benchmarks ... is
/// that in general applying HLE there shows little performance impact
/// because the benchmarks are already optimized to avoid contention").
///
/// We build the same total workload twice: once under a single global
/// lock (coarse-grained — HLE's target) and once under per-shard locks
/// (fine-grained). Elision transforms the coarse-grained version but
/// barely moves the fine-grained one, which was already concurrent.
pub(super) fn ablation_finegrained(d: &mut Driver<'_>) {
    const SHARDS: usize = 16;
    let args = d.args;
    let ops = if args.quick { 150 } else { 400 };

    println!("== Ablation: coarse- vs fine-grained locking under elision ==");
    println!("{} threads, {SHARDS} shards; HLE speedup over standard locking\n", args.threads);

    // Each operation picks a shard, locks it (or the single global lock)
    // and updates that shard's counter; returns ops per kcycle.
    let run = move |scheme_kind: SchemeKind, fine_grained: bool| {
        let threads = args.threads;
        let mut b = MemoryBuilder::new();
        let counters: Vec<VarId> = (0..SHARDS).map(|_| b.alloc_isolated(0)).collect();
        let n_locks = if fine_grained { SHARDS } else { 1 };
        let schemes: Vec<Arc<Scheme>> = (0..n_locks)
            .map(|_| {
                let main = make_lock(LockKind::Ttas, &mut b, threads);
                Arc::new(
                    Scheme::new(scheme_kind, SchemeConfig::paper(), main, None)
                        .expect("non-SCM scheme needs no aux"),
                )
            })
            .collect();
        let mem = b.freeze(threads);
        let counters2 = counters.clone();
        let (_, mem, makespan) = harness::run(threads, HtmConfig::haswell(), 21, mem, move |s| {
            for _ in 0..ops {
                let shard = s.rng.below(SHARDS as u64) as usize;
                let scheme = &schemes[shard % schemes.len()];
                let target = counters2[shard];
                scheme.execute(s, |s| {
                    let v = s.load(target)?;
                    s.work(25)?;
                    s.store(target, v + 1)
                });
            }
        });
        let total: u64 = counters.iter().map(|&c| mem.read_direct(c)).sum();
        assert_eq!(total, threads as u64 * ops, "lost updates");
        ops_per_kcycle(ops, threads, makespan)
    };
    let mut cells = Vec::new();
    for fine in [false, true] {
        for scheme in [SchemeKind::Standard, SchemeKind::Hle] {
            let grain = if fine { "fine" } else { "coarse" };
            cells.push(Cell::new(format!("{grain}/{}", scheme.label()), args.threads, move || {
                run(scheme, fine)
            }));
        }
    }
    let outcome = d.sweep(cells);

    let mut table =
        Table::new(&["granularity", "standard (ops/kcycle)", "HLE (ops/kcycle)", "HLE speedup"]);
    let mut report = d.metrics();
    let mut pairs = outcome.results.chunks_exact(2);
    for fine in [false, true] {
        let pair = pairs.next().expect("one standard/HLE pair per granularity");
        let (std, hle) = (pair[0], pair[1]);
        table.row(vec![
            if fine { format!("fine ({SHARDS} locks)") } else { "coarse (1 lock)".to_string() },
            f2(std),
            f2(hle),
            f2(hle / std),
        ]);
        report.push_row(Json::obj(vec![
            ("granularity", Json::Str(if fine { "fine" } else { "coarse" }.to_string())),
            ("locks", Json::Uint(if fine { SHARDS as u64 } else { 1 })),
            ("standard_throughput", Json::Float(std)),
            ("hle_throughput", Json::Float(hle)),
            ("hle_speedup", Json::Float(hle / std)),
        ]));
    }
    d.table(&table, "ablation_finegrained");
    d.finish(&report.to_json());
    println!(
        "\nShape check: elision multiplies coarse-grained throughput but adds \
         little beyond the already-concurrent fine-grained version — the paper's \
         premise for evaluating coarse-grained benchmarks."
    );
}
