//! Request-path behavior of the service: gates, cache layers,
//! collision/version hygiene, and the no-panic contract.

use og_fuzz::case_gen_config;
use og_json::store::KeyedStore;
use og_json::ToJson;
use og_program::generate::generate_with_bound;
use og_program::{FuncId, Program};
use og_serve::{Reject, ServeConfig, Served, Service};
use og_vm::RunConfig;

/// A small deterministic valid program and its JSON text.
fn valid_program(index: u64) -> (Program, String) {
    let (program, _bound) = generate_with_bound(&case_gen_config(0xA11CE, index));
    let text = og_json::to_string(&program).unwrap();
    (program, text)
}

fn temp_store(name: &str, capacity: usize) -> KeyedStore {
    let dir = std::env::temp_dir().join(format!("og-serve-test-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    KeyedStore::new(dir, "og-serve", capacity)
}

#[test]
fn compute_once_then_serve_from_memory() {
    let service = Service::new(ServeConfig::default());
    let (_, text) = valid_program(0);

    let first = service.call(&text);
    let summary = first.outcome.as_ref().expect("valid program accepted");
    assert_eq!(first.served, Served::Computed);
    assert!(summary.insts > 0);

    let second = service.call(&text);
    assert_eq!(second.served, Served::ResultHit);
    assert_eq!(second.digest, first.digest);
    assert_eq!(second.outcome.unwrap(), *summary, "memoized result must be the same Arc'd summary");

    // Formatting differences dedup onto the same entry: the digest
    // covers the canonical rendering, not the request bytes.
    let spaced = text.replace(":", ": ").replace(",", " ,");
    let third = service.call(&spaced);
    assert_eq!(third.digest, first.digest);
    assert_eq!(third.served, Served::ResultHit);

    let m = service.metrics();
    assert_eq!((m.requests, m.computed, m.result_hits), (3, 1, 2));
    assert_eq!(m.invariant_violations, 0);
}

#[test]
fn garbage_is_rejected_at_the_parse_gate() {
    let service = Service::new(ServeConfig::default());
    for bad in ["", "not json", "{\"entry\":", "[1,2,3]", "{\"funcs\":7}"] {
        let response = service.call(bad);
        assert_eq!(response.served, Served::Rejected, "{bad:?}");
        assert!(matches!(response.outcome, Err(Reject::Parse(_))), "{bad:?}");
    }
    let m = service.metrics();
    assert_eq!(m.parse_rejects, 5);
    assert_eq!(m.invariant_violations, 0);
}

#[test]
fn verify_rejects_carry_the_complete_error_list() {
    let (mut program, _) = valid_program(1);
    // Two independent structural errors: a dangling entry function and
    // an emptied block.
    program.entry = FuncId(999);
    program.funcs[0].blocks[0].insts.clear();
    let text = og_json::render(&program.to_json()).unwrap();

    let service = Service::new(ServeConfig::default());
    let response = service.call(&text);
    assert_eq!(response.served, Served::Rejected);
    let Err(Reject::Verify(errors)) = response.outcome else {
        panic!("expected a verify reject, got {:?}", response.outcome);
    };
    assert!(errors.len() >= 2, "collect-all must report both defects, got {errors:?}");
    assert_eq!(service.metrics().verify_rejects, 1);
    assert_eq!(service.metrics().invariant_violations, 0);
}

#[test]
fn results_persist_across_service_instances_through_the_store() {
    let store = temp_store("restart", 32);
    let (_, text) = valid_program(2);

    let first = Service::new(ServeConfig { store: Some(store.clone()), ..Default::default() });
    let computed = first.call(&text);
    assert_eq!(computed.served, Served::Computed);
    drop(first);

    // A fresh process-analogue: empty memory cache, same store dir.
    let second = Service::new(ServeConfig { store: Some(store.clone()), ..Default::default() });
    let restored = second.call(&text);
    assert_eq!(restored.served, Served::StoreHit, "result must come off disk, not recompute");
    assert_eq!(restored.outcome.unwrap(), computed.outcome.unwrap());
    let m = second.metrics();
    assert_eq!((m.computed, m.store_hits), (0, 1));

    // And the store hit primed the memory cache: next call is a
    // result hit without touching disk.
    assert_eq!(second.call(&text).served, Served::ResultHit);
    std::fs::remove_dir_all(store.dir()).ok();
}

#[test]
fn a_stale_store_version_is_recomputed_not_served() {
    let store = temp_store("stale-version", 32);
    let (_, text) = valid_program(3);
    let service = Service::new(ServeConfig { store: Some(store.clone()), ..Default::default() });
    let computed = service.call(&text);
    assert_eq!(computed.served, Served::Computed);
    // Persistence is write-behind; dropping the service joins the pool
    // and flushes the pending put.
    drop(service);

    // Corrupt the persisted version stamp, as an old binary would have
    // left behind after a pipeline-semantics bump.
    let key = store.keys()[0];
    let mut doc = store.get(key).unwrap().unwrap();
    let og_json::Json::Obj(fields) = &mut doc else { panic!("store doc is an object") };
    fields.iter_mut().find(|(k, _)| k == "version").unwrap().1 = og_json::Json::Num(1.0);
    store.put(key, &doc).unwrap();

    let fresh = Service::new(ServeConfig { store: Some(store.clone()), ..Default::default() });
    let response = fresh.call(&text);
    assert_eq!(response.served, Served::Computed, "stale-version entry must not be served");
    std::fs::remove_dir_all(store.dir()).ok();
}

#[test]
fn a_store_entry_under_a_colliding_digest_is_recomputed_not_served() {
    let store = temp_store("collision", 32);
    let (_, a) = valid_program(12);
    let (_, b) = valid_program(13);
    let service = Service::new(ServeConfig { store: Some(store.clone()), ..Default::default() });
    let key_a = service.call(&a).digest;
    let key_b = service.call(&b).digest;
    // Dropping the service joins the pool and flushes the pending puts.
    drop(service);

    // Plant A's entry under B's digest, as a digest collision would.
    let doc_a = store.get(key_a).unwrap().expect("A's result was persisted");
    store.put(key_b, &doc_a).unwrap();

    let fresh = Service::new(ServeConfig { store: Some(store.clone()), ..Default::default() });
    let response = fresh.call(&b);
    assert_eq!(response.served, Served::Computed, "another program's entry must not be served");
    let summary = response.outcome.expect("B computes");
    assert_eq!(summary.bench, format!("og-{:016x}", key_b as u64), "B's own result");
    drop(fresh);

    // The recompute overwrote the foreign entry: B's result now comes off
    // disk.
    let restarted = Service::new(ServeConfig { store: Some(store.clone()), ..Default::default() });
    let restored = restarted.call(&b);
    assert_eq!(restored.served, Served::StoreHit);
    assert_eq!(restored.outcome.unwrap(), summary);
    std::fs::remove_dir_all(store.dir()).ok();
}

#[test]
fn the_artifact_lru_is_bounded_and_eviction_is_counted() {
    let service = Service::new(ServeConfig { artifact_capacity: 1, ..Default::default() });
    let (_, a) = valid_program(4);
    let (_, b) = valid_program(5);

    assert_eq!(service.call(&a).served, Served::Computed);
    assert_eq!(service.call(&b).served, Served::Computed); // evicts a
    assert_eq!(service.call(&a).served, Served::Computed); // recompute, evicts b
    let m = service.metrics();
    assert_eq!(m.evictions, 2);
    assert_eq!(m.computed, 3);
    assert_eq!(m.invariant_violations, 0);
}

#[test]
fn a_valid_program_that_runs_out_of_fuel_is_a_run_error_not_a_crash() {
    let run_config = RunConfig { max_steps: 3, ..RunConfig::default() };
    let service = Service::new(ServeConfig { run_config, ..Default::default() });
    let (_, text) = valid_program(6);

    let response = service.call(&text);
    assert_eq!(response.served, Served::Rejected);
    assert!(
        matches!(response.outcome, Err(Reject::Run(_))),
        "expected a run failure, got {:?}",
        response.outcome
    );
    let m = service.metrics();
    assert_eq!(m.run_errors, 1);
    // Fuel exhaustion is a resource limit, not a verifier-invariant
    // breach.
    assert_eq!(m.invariant_violations, 0);

    // The failure is memoized like a success: the replay is a cache hit
    // that reports the same error without re-running.
    let replay = service.call(&text);
    assert!(matches!(replay.outcome, Err(Reject::Run(_))));
    assert_eq!(service.metrics().result_hits, 1);
}

#[test]
fn concurrent_duplicate_requests_agree_and_never_violate_invariants() {
    let service = Service::new(ServeConfig::default());
    let texts: Vec<String> = (7..11).map(|i| valid_program(i).1).collect();
    std::thread::scope(|scope| {
        for t in 0..8usize {
            let service = &service;
            let texts = &texts;
            scope.spawn(move || {
                for i in 0..20 {
                    let text = &texts[(t + i) % texts.len()];
                    let response = service.call(text);
                    assert!(response.outcome.is_ok(), "{:?}", response.outcome);
                }
            });
        }
    });
    let m = service.metrics();
    assert_eq!(m.requests, 160);
    assert_eq!(m.invariant_violations, 0);
    assert!(m.cache_hit_rate() > 0.5, "{:?}", m);
}
