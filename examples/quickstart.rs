//! Quickstart: define a computational system, ask whether information can
//! be transmitted, and find a constraint that stops it.
//!
//! Run with `cargo run --example quickstart`.

use strong_dependency::core::{
    classify, problem::Problem, solve, Cmd, Domain, Expr, ObjSet, Op, Oracle, Phi, Query, System,
    Universe,
};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The §3.2 system: δ: if m then β ← α.
    let u = Universe::new(vec![
        ("alpha".into(), Domain::int_range(0, 3)?),
        ("beta".into(), Domain::int_range(0, 3)?),
        ("m".into(), Domain::boolean()),
    ])?;
    let alpha = u.obj("alpha")?;
    let beta = u.obj("beta")?;
    let m = u.obj("m")?;
    let sys = System::new(
        u,
        vec![Op::from_cmd(
            "copy",
            Cmd::when(Expr::var(m), Cmd::assign(beta, Expr::var(alpha))),
        )],
    );
    sys.validate()?;
    println!("{sys}");

    // Can information be transmitted from α to β? (Def 2-7, decided by
    // pair reachability.)
    let src = ObjSet::singleton(alpha);
    match Query::new(Phi::True, src.clone())
        .beta(beta)
        .run_on(&sys)?
        .into_witness()
    {
        Some(w) => {
            println!("α ▷ β — yes. Witness history: {}", w.history);
            println!(
                "  σ1 = {}\n  σ2 = {}",
                w.sigma1.display(sys.universe()),
                w.sigma2.display(sys.universe())
            );
        }
        None => println!("α ▷ β — no."),
    }

    // The solution the paper suggests: φ(σ) ≡ ¬σ.m.
    let phi = Phi::expr(Expr::var(m).not());
    println!(
        "\nφ = ¬m: autonomous = {}, invariant = {}",
        classify::is_autonomous(&sys, &phi)?,
        classify::is_invariant(&sys, &phi)?
    );
    let problem = Problem::no_flow(src.clone(), beta, true);
    println!(
        "φ solves ¬α ▷φ β (α-independently): {}",
        problem.is_solution(&sys, &phi)?
    );

    // The provers share one Oracle: the system compiles once for both.
    let oracle = Oracle::new(&sys)?;

    // A certificate via Strong Dependency Induction (Corollary 4-2).
    let outcome = strong_dependency::core::induction::prove_cor_4_2(&oracle, &phi, alpha, beta)?;
    if let Some(cert) = outcome.certificate() {
        println!("\n{cert}");
    }

    // The *maximal* α-independent solution, constructed (Thm 3-1).
    let phi_max = solve::unique_maximal_independent_solution(&oracle, &src, beta)?;
    println!(
        "maximal solution admits {} of {} states (φ = ¬m admits {})",
        phi_max.sat(&sys)?.count(),
        sys.state_count()?,
        phi.sat(&sys)?.count()
    );
    Ok(())
}
