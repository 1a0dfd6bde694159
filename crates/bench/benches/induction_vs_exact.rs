//! P1: Strong Dependency Induction (Corollary 4-3) vs the exact
//! pair-reachability oracle on the §4.3 pointer-chain family.
//!
//! The paper's point: induction discharges per-operation checks and scales
//! with |Σ| · |Δ|, while the exact search explores pairs of states.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sd_core::depend::{strongly_depends_after_with, SatPartition};
use sd_core::history::histories_up_to;
use sd_core::{examples, ObjId, ObjSet, Phi};

fn chain_setup(n: usize) -> (sd_core::System, Phi, ObjId, ObjId) {
    let sys = examples::pointer_chain_system(n, 2).expect("pointer system builds");
    let u = sys.universe();
    let alpha = u.obj("o0").expect("o0");
    let beta = u.obj(&format!("o{}", n - 1)).expect("last");
    let chain = ObjSet::singleton(alpha);
    let phi = Phi::pred("chain-closed", move |sys, sigma| {
        let u = sys.universe();
        for y in u.objects() {
            let target = match sigma.value(u, y) {
                sd_core::Value::Record(fields) => fields[1].as_name().expect("ptr is a name"),
                _ => unreachable!(),
            };
            if chain.contains(target) && !chain.contains(y) {
                return Ok(false);
            }
        }
        Ok(true)
    });
    (sys, phi, alpha, beta)
}

fn bench_induction_vs_exact(c: &mut Criterion) {
    let mut g = c.benchmark_group("induction_vs_exact");
    g.sample_size(10);
    for n in [3usize, 4] {
        let (sys, phi, alpha, beta) = chain_setup(n);
        let chain = ObjSet::singleton(alpha);
        let q = move |x: ObjId, y: ObjId| !chain.contains(x) || chain.contains(y);
        g.bench_with_input(BenchmarkId::new("cor_4_3", n), &sys, |b, sys| {
            b.iter(|| {
                sd_core::induction::prove_cor_4_3(sys, &phi, &q, "chain").expect("prover succeeds")
            })
        });
        let exact_query = sd_core::Query::new(phi.clone(), ObjSet::singleton(alpha)).beta(beta);
        g.bench_with_input(BenchmarkId::new("exact_bfs", n), &sys, |b, sys| {
            b.iter(|| exact_query.run_on(sys).expect("oracle succeeds"))
        });
        // Ablation: the naive pre-pair-BFS approach — enumerate every
        // history up to a bound and run the per-history check (Def 2-7)
        // against one Sat(φ) partition. Exponential in the bound, and
        // still only *bounded*; measured for the small instance only (it
        // is already orders of magnitude slower).
        if n == 3 {
            let src = ObjSet::singleton(alpha);
            g.bench_with_input(BenchmarkId::new("bounded_enum_len2", n), &sys, |b, sys| {
                b.iter(|| {
                    let part = SatPartition::new(sys, &phi, &src).expect("Sat(φ) enumerates");
                    histories_up_to(sys.num_ops(), 2).find_map(|h| {
                        strongly_depends_after_with(sys, &part, beta, &h).expect("histories replay")
                    })
                })
            });
        }
    }
    g.finish();
}

criterion_group!(benches, bench_induction_vs_exact);
criterion_main!(benches);
