//! Expected answers, computed in-process with sd-core, and the checks
//! that compare the server's responses against them.
//!
//! The reference path shares only the canonical answer encoding
//! ([`proto::encode_answer`]) with the server: systems are rebuilt from
//! their descriptions here, queries are built from the request fields
//! here, and each system gets its own fresh [`Oracle`].

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use sd_core::{examples, CompileBudget, Engine, ObjSet, Oracle, Phi, Query, System};
use sd_server::{proto, QueryKind, QueryReq, SystemDesc};

use crate::gen::Workload;

/// Builds the system a description denotes.
pub fn build_system(desc: &SystemDesc) -> Result<System, String> {
    let built = match desc {
        SystemDesc::Program { source } => {
            let prog = sd_lang::parse(source).map_err(|e| e.to_string())?;
            return sd_lang::compile(&prog)
                .map(|c| c.system)
                .map_err(|e| e.to_string());
        }
        SystemDesc::Example { name, params } => {
            let p = |i: usize| params.get(i).copied().ok_or("missing parameter");
            match name.as_str() {
                "mod_adder" => examples::mod_adder_system(p(0)? as u32),
                "flag_copy" => examples::flag_copy_system(p(0)?),
                "guarded_copy" => examples::guarded_copy_system(p(0)?),
                "nontransitive" => examples::nontransitive_system(p(0)?),
                "pointer_chain" => examples::pointer_chain_system(p(0)? as usize, p(1)?),
                other => return Err(format!("no reference system for example `{other}`")),
            }
        }
    };
    built.map_err(|e| e.to_string())
}

fn set(sys: &System, names: &[String]) -> Result<ObjSet, String> {
    let u = sys.universe();
    let mut s = ObjSet::empty();
    for n in names {
        s.insert(u.obj(n).map_err(|e| e.to_string())?);
    }
    Ok(s)
}

/// The [`Query`] a wire request asks, built independently of the
/// server's request path.
pub fn build_query(sys: &System, req: &QueryReq) -> Result<Query, String> {
    let phi = match req.phi.as_deref() {
        None | Some("") => Phi::True,
        Some(src) => sd_lang::lower_phi(sys.universe(), src).map_err(|e| e.to_string())?,
    };
    let q = match req.kind {
        QueryKind::SinksMatrix => Query::matrix(
            phi,
            req.sources
                .iter()
                .map(|row| set(sys, row))
                .collect::<Result<_, _>>()?,
        ),
        QueryKind::Sinks => Query::new(phi, set(sys, &req.a)?),
        QueryKind::Depends => {
            let q = Query::new(phi, set(sys, &req.a)?);
            match &req.beta {
                Some(b) => q.beta(sys.universe().obj(b).map_err(|e| e.to_string())?),
                None => q.set(set(sys, &req.set)?),
            }
        }
    };
    Ok(match req.bound {
        Some(k) => q.bounded(k),
        None => q,
    })
}

/// The canonical answer bytes for `req` on `sys`.
pub fn answer(sys: &System, oracle: &Oracle<'_>, req: &QueryReq) -> Result<String, String> {
    let out = build_query(sys, req)?
        .run(oracle)
        .map_err(|e| e.to_string())?;
    Ok(proto::encode_answer(sys, &out))
}

/// Expected answer bytes for every query of `w`, computed on `threads`
/// threads, one system (and one fresh Oracle) at a time.
pub fn expected_answers(w: &Workload, threads: usize) -> Result<Vec<String>, String> {
    let mut by_system: Vec<Vec<usize>> = vec![Vec::new(); w.systems.len()];
    for (i, q) in w.queries.iter().enumerate() {
        by_system[q.system].push(i);
    }
    // Largest systems first so the big one does not finish last alone.
    let mut order: Vec<usize> = (0..w.systems.len()).collect();
    order.sort_by_key(|&s| std::cmp::Reverse(by_system[s].len()));
    let out: Mutex<Vec<Option<String>>> = Mutex::new(vec![None; w.queries.len()]);
    let failure: Mutex<Option<String>> = Mutex::new(None);
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..threads.max(1) {
            scope.spawn(|| loop {
                let Some(&s) = order.get(next.fetch_add(1, Ordering::SeqCst)) else {
                    return;
                };
                let result = (|| {
                    let sys = build_system(&w.systems[s])?;
                    let oracle = Oracle::with_engine(&sys, Engine::Auto, &CompileBudget::default())
                        .map_err(|e| e.to_string())?;
                    by_system[s]
                        .iter()
                        .map(|&i| Ok((i, answer(&sys, &oracle, &w.queries[i].req)?)))
                        .collect::<Result<Vec<_>, String>>()
                })();
                match result {
                    Ok(answers) => {
                        let mut out = out.lock().expect("answers lock");
                        for (i, a) in answers {
                            out[i] = Some(a);
                        }
                    }
                    Err(e) => {
                        failure.lock().expect("failure lock").get_or_insert(e);
                    }
                }
            });
        }
    });
    if let Some(e) = failure.into_inner().expect("failure lock") {
        return Err(format!("reference answer failed: {e}"));
    }
    Ok(out
        .into_inner()
        .expect("answers lock")
        .into_iter()
        .map(|a| a.expect("every system was answered"))
        .collect())
}

/// Checks one query response line: matching id, `ok`, and answer bytes
/// equal to `expected`.
pub fn check_query(line: &str, id: u64, expected: &str) -> Result<(), String> {
    let resp = proto::parse_response(line).map_err(|e| format!("unparsable response: {e}"))?;
    if resp.id != Some(id) {
        return Err(format!("response id {:?} for request {id}", resp.id));
    }
    if !resp.ok {
        return Err(format!("error response: {line}"));
    }
    match resp.answer_raw.as_deref() {
        Some(got) if got == expected => Ok(()),
        Some(got) => Err(format!("answer {got} differs from expected {expected}")),
        None => Err("response carries no answer".into()),
    }
}

/// Checks one register response line: matching id, `ok`, and the
/// content key the client predicted.
pub fn check_register(line: &str, id: u64, key: u64) -> Result<(), String> {
    let resp = proto::parse_response(line).map_err(|e| format!("unparsable response: {e}"))?;
    if resp.id != Some(id) || !resp.ok {
        return Err(format!("bad register response for {id}: {line}"));
    }
    match resp.body.get("system").and_then(sd_server::Json::as_u64) {
        Some(k) if k == key => Ok(()),
        other => Err(format!("registered as {other:?}, expected {key}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn guarded() -> (System, QueryReq) {
        let desc = SystemDesc::Example {
            name: "guarded_copy".into(),
            params: vec![2],
        };
        let sys = build_system(&desc).unwrap();
        let mut req = QueryReq::depends(desc.content_key(), vec!["alpha".into()], "beta");
        req.phi = Some("m".into());
        (sys, req)
    }

    #[test]
    fn checker_accepts_the_right_answer_and_rejects_a_wrong_one() {
        let (sys, req) = guarded();
        let oracle = Oracle::new(&sys).unwrap();
        let right = answer(&sys, &oracle, &req).unwrap();
        assert!(right.contains("\"holds\":true"), "{right}");
        let line = proto::encode_query_ok(Some(9), &right, false, None);
        assert!(check_query(&line, 9, &right).is_ok());
        let wrong = right.replace("\"holds\":true", "\"holds\":false");
        assert!(check_query(&line, 9, &wrong).is_err());
        assert!(check_query(&line, 10, &right).is_err(), "wrong id");
        let err = proto::encode_error(
            Some(9),
            &sd_server::WireError::new(sd_server::ErrorKind::Timeout, "late"),
        );
        assert!(check_query(&err, 9, &right).is_err(), "error response");
    }

    #[test]
    fn expected_answers_cover_every_query() {
        let w = crate::gen::build("warm_hits", 1, 1, 2).unwrap();
        let answers = expected_answers(&w, 2).unwrap();
        assert_eq!(answers.len(), w.queries.len());
        assert!(answers.iter().all(|a| a.starts_with("{\"type\":")));
    }
}
