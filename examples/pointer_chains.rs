//! The §4.3 pointer-chain example: Strong Dependency Induction proves a
//! reachability-style isolation property.
//!
//! Objects hold `(data, ptr)` records; operations copy data along
//! pointers (`δ1`) and advance pointers (`δ2`). If no chain of pointers
//! leads from β back to α, no information can ever be transmitted from α
//! to β — proved by Corollary 4-3 with `q(x, y) = Chain(x) ⊃ Chain(y)`.
//!
//! Run with `cargo run --example pointer_chains --release`.

use strong_dependency::core::{examples, induction, ObjId, ObjSet, Oracle, Phi, Query, Value};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let n = 4;
    let sys = examples::pointer_chain_system(n, 2)?;
    let u = sys.universe();
    println!("{sys}");

    // Chain = {o0}: α is o0 and must stay unreachable from outside.
    let alpha = u.obj("o0")?;
    let beta = u.obj(&format!("o{}", n - 1))?;
    let chain = ObjSet::singleton(alpha);

    // φ: every object whose pointer lands in Chain is itself in Chain —
    // the §4.3 invariant "Chain(σ.y.ptr) ⊃ Chain(y)".
    let chain_phi = chain.clone();
    let phi = Phi::pred("chain-closed", move |sys, sigma| {
        let u = sys.universe();
        for y in u.objects() {
            let target = match sigma.value(u, y) {
                Value::Record(fields) => fields[1].as_name().expect("ptr field"),
                _ => unreachable!("pointer objects are records"),
            };
            if chain_phi.contains(target) && !chain_phi.contains(y) {
                return Ok(false);
            }
        }
        Ok(true)
    });
    println!(
        "φ admits {} of {} states",
        phi.sat(&sys)?.count(),
        sys.state_count()?
    );

    // The induction proof (Cor 4-3): autonomy + invariance + per-operation
    // respect of q imply every dependency respects q.
    let chain_q = chain.clone();
    let q = move |x: ObjId, y: ObjId| !chain_q.contains(x) || chain_q.contains(y);
    let outcome = induction::prove_cor_4_3(&Oracle::new(&sys)?, &phi, &q, "Chain(x) ⊃ Chain(y)")?;
    match outcome.certificate() {
        Some(cert) => println!("\n{cert}"),
        None => println!("induction failed: {:?}", outcome.reason()),
    }

    // Cross-check with the exact oracle.
    let exact = Query::new(phi.clone(), ObjSet::singleton(alpha))
        .beta(beta)
        .run_on(&sys)?
        .into_witness();
    println!("exact pair-reachability: α ▷φ β = {}", exact.is_some());

    // Sanity: without φ, pointers can be re-aimed at α and the flow exists.
    let free = Query::new(Phi::True, ObjSet::singleton(alpha))
        .beta(beta)
        .run_on(&sys)?
        .into_witness();
    match free {
        Some(w) => println!(
            "without φ the flow exists, e.g. over history {} ({} steps)",
            w.history,
            w.history.len()
        ),
        None => println!("without φ: still no flow (unexpected)"),
    }
    Ok(())
}
