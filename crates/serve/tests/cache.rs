//! Cache-layer tests: retarget-once under concurrency, shared `Arc`
//! handout, LRU eviction order, and a server's session pools following
//! what its cache holds.

use record_core::RetargetOptions;
use record_serve::{
    model_key, Client, CompileSpec, Json, Model, Server, ServerConfig, TargetCache,
};
use record_targets::{kernels, models};
use std::sync::Arc;

#[test]
fn concurrent_requests_retarget_once_and_share_the_artifact() {
    let cache = TargetCache::new(4, RetargetOptions::default());
    let hdl = models::model("ref").unwrap().hdl;
    const THREADS: usize = 8;

    let targets: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|_| scope.spawn(|| cache.get_or_retarget(hdl).unwrap()))
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    // Everyone got the same key and literally the same artifact.
    let (key0, first) = &targets[0];
    for (key, target) in &targets {
        assert_eq!(key, key0);
        assert!(Arc::ptr_eq(target, first), "one artifact, shared");
    }

    // The counters prove the retarget ran exactly once: one miss did the
    // work, every other thread was served from the ready entry (after
    // waiting behind the in-flight retarget, when it arrived early).
    let stats = cache.stats();
    assert_eq!(stats.retargets, 1, "{stats:?}");
    assert_eq!(stats.misses, 1, "{stats:?}");
    assert_eq!(stats.hits, (THREADS - 1) as u64, "{stats:?}");
    assert!(stats.inflight_waits <= (THREADS - 1) as u64, "{stats:?}");
}

#[test]
fn failed_retargets_are_not_cached() {
    let cache = TargetCache::new(4, RetargetOptions::default());
    assert!(cache.get_or_retarget("processor syntax error {").is_err());
    let after_first = cache.stats().retargets;
    assert_eq!(after_first, 1);
    // The failure was not cached: a retry runs the retarget again.
    assert!(cache.get_or_retarget("processor syntax error {").is_err());
    assert_eq!(cache.stats().retargets, 2);
    assert!(cache.keys().is_empty());
}

#[test]
fn eviction_follows_least_recent_use() {
    let cache = TargetCache::new(2, RetargetOptions::default());
    let a = models::model("demo").unwrap().hdl;
    let b = models::model("manocpu").unwrap().hdl;
    let c = models::model("bass_boost").unwrap().hdl;
    let (ka, _) = cache.get_or_retarget(a).unwrap();
    let (kb, _) = cache.get_or_retarget(b).unwrap();
    assert_eq!(cache.keys(), vec![kb, ka], "most recently used first");

    // Touch `a` so `b` becomes the LRU victim.
    cache.get_or_retarget(a).unwrap();
    let (kc, _) = cache.get_or_retarget(c).unwrap();
    assert_eq!(cache.keys(), vec![kc, ka], "b was evicted");
    assert_eq!(cache.stats().evictions, 1);

    // The evicted model is gone from key-addressed lookup but comes back
    // (with a fresh retarget) through content addressing.
    assert!(cache.get(kb).is_none());
    let retargets_before = cache.stats().retargets;
    cache.get_or_retarget(b).unwrap();
    assert_eq!(cache.stats().retargets, retargets_before + 1);
}

#[test]
fn content_addressing_survives_reformatting() {
    let cache = TargetCache::new(2, RetargetOptions::default());
    let hdl = models::model("demo").unwrap().hdl;
    let reformatted: String = hdl
        .lines()
        .map(|l| format!("  {}\r\n", l.trim_end()))
        .collect();
    assert_eq!(model_key(hdl), model_key(&reformatted));
    let (k1, _) = cache.get_or_retarget(hdl).unwrap();
    let (k2, _) = cache.get_or_retarget(&reformatted).unwrap();
    assert_eq!(k1, k2);
    assert_eq!(cache.stats().retargets, 1);
}

/// A server keeps a session pool only for a target its cache holds.  With
/// room for one target, each compile on another model evicts the last
/// one, and its pool must go with it; `ref` compiled again after its
/// eviction must run on its new target, not on the old target's pool.
#[test]
fn session_pools_follow_the_cached_targets() {
    let server = Server::start(
        "127.0.0.1:0",
        ServerConfig {
            cache_capacity: 1,
            ..ServerConfig::default()
        },
    )
    .expect("bind loopback");
    let mut client = Client::connect(server.addr()).expect("connect");
    let kernel = kernels::kernel("real_update").unwrap();
    let spec = CompileSpec::new(kernel.source, kernel.function);
    for name in ["ref", "tms320c25", "bass_boost", "ref"] {
        let hdl = models::model(name).unwrap().hdl;
        client
            .compile(&Model::Hdl(hdl), &spec)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
    }

    let stats = client.stats().expect("stats");
    let count = |section: &str, field: &str| {
        stats
            .get(section)
            .and_then(|s| s.get(field))
            .and_then(Json::as_u64)
            .unwrap_or_else(|| panic!("{section}.{field} in {stats}"))
    };
    assert_eq!(count("cache", "entries"), 1, "{stats}");
    assert_eq!(count("cache", "evictions"), 3, "{stats}");
    assert_eq!(count("cache", "retargets"), 4, "{stats}");
    assert!(
        count("pools", "count") <= count("cache", "entries"),
        "a pool outlived its target: {stats}"
    );
    assert_eq!(
        count("pools", "reused"),
        0,
        "the second `ref` compile reused the evicted target's pool: {stats}"
    );
}

/// A cache entry owns its target's session pool, so evicting the entry
/// drops the pool with it: a `retarget` that evicts a compiled target
/// leaves no pool behind to keep that target alive.
#[test]
fn an_evicted_target_takes_its_session_pool_with_it() {
    let server = Server::start(
        "127.0.0.1:0",
        ServerConfig {
            cache_capacity: 1,
            ..ServerConfig::default()
        },
    )
    .expect("bind loopback");
    let mut client = Client::connect(server.addr()).expect("connect");
    let kernel = kernels::kernel("real_update").unwrap();
    let spec = CompileSpec::new(kernel.source, kernel.function);
    let hdl = |name| models::model(name).unwrap().hdl;
    client
        .compile(&Model::Hdl(hdl("ref")), &spec)
        .expect("real_update compiles on ref");
    client
        .retarget(hdl("tms320c25"))
        .expect("tms320c25 retargets");

    let stats = client.stats().expect("stats");
    let count = |section: &str, field: &str| {
        stats
            .get(section)
            .and_then(|s| s.get(field))
            .and_then(Json::as_u64)
            .unwrap_or_else(|| panic!("{section}.{field} in {stats}"))
    };
    assert_eq!(count("cache", "evictions"), 1, "{stats}");
    assert_eq!(count("pools", "count"), 0, "{stats}");
}
