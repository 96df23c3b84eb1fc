//! Positive/negative fixtures for every `shift-lint` rule, run through the
//! same [`shift_lint::check_source`] entry point the workspace check uses.

use shift_lint::check_source;

/// Rule names among the findings for `src` linted as a store-crate file.
fn store_findings(src: &str) -> Vec<&'static str> {
    check_source("crates/store/src/fixture.rs", src)
        .into_iter()
        .map(|d| d.rule)
        .collect()
}

/// Rule names for `src` linted as a non-serving-path crate file.
fn bench_findings(src: &str) -> Vec<&'static str> {
    check_source("crates/bench/src/fixture.rs", src)
        .into_iter()
        .map(|d| d.rule)
        .collect()
}

// ---------------------------------------------------------------- rule 1

#[test]
fn ordering_without_annotation_is_flagged() {
    let src = "fn f(x: &AtomicU64) { x.fetch_add(1, Ordering::Relaxed); }";
    assert_eq!(store_findings(src), vec!["atomics-ordering"]);
    // The rule is workspace-wide, not just serving-path crates.
    assert_eq!(bench_findings(src), vec!["atomics-ordering"]);
}

#[test]
fn ordering_with_matching_annotation_is_clean() {
    let src = "\
fn f(x: &AtomicU64) {
    // lint: ordering(Relaxed) pure stats counter, read only by stats()
    x.fetch_add(1, Ordering::Relaxed);
    x.load(Ordering::SeqCst); // lint: ordering(SeqCst) pairs with the seqlock store
}";
    assert_eq!(store_findings(src), Vec::<&str>::new());
}

#[test]
fn ordering_annotation_must_name_the_ordering_used() {
    let src = "\
fn f(x: &AtomicU64) {
    // lint: ordering(Acquire) claims acquire but the site is relaxed
    x.load(Ordering::Relaxed);
}";
    // Mismatch: the site is unjustified AND the annotation is stale.
    let mut got = store_findings(src);
    got.sort();
    assert_eq!(got, vec!["atomics-ordering", "unused-annotation"]);
}

#[test]
fn cmp_ordering_is_not_an_atomic_site() {
    let src = "fn f() -> Ordering { Ordering::Less.then(Ordering::Greater) }";
    assert_eq!(store_findings(src), Vec::<&str>::new());
}

#[test]
fn orderings_in_test_modules_are_exempt() {
    let src = "\
#[cfg(test)]
mod tests {
    fn f(x: &AtomicU64) { x.load(Ordering::SeqCst); }
}";
    assert_eq!(store_findings(src), Vec::<&str>::new());
}

// ---------------------------------------------------------------- rule 2

#[test]
fn unwrap_and_panic_macros_flagged_on_serving_path_only() {
    let src = "\
fn f(m: &Map) {
    let a = m.get(0).unwrap();
    let b = m.get(1).expect(\"present\");
    assert!(a < b);
    assert_eq!(a, b);
    panic!(\"boom\");
    unreachable!();
}";
    assert_eq!(
        store_findings(src),
        vec!["panic-path"; 6],
        "every panicking site on the serving path is a finding"
    );
    assert_eq!(
        bench_findings(src),
        Vec::<&str>::new(),
        "bench/test crates may panic freely"
    );
}

#[test]
fn debug_assert_and_annotated_unwrap_are_clean() {
    let src = "\
fn f(fences: &[u64]) {
    debug_assert!(fences.len() > 1);
    debug_assert_eq!(fences[0], u64::MIN);
    // lint: allow(panic) router construction guarantees >= 1 fence
    let first = fences.first().unwrap();
    let _ = first;
}";
    assert_eq!(store_findings(src), Vec::<&str>::new());
}

#[test]
fn unwrap_or_variants_are_not_panics() {
    let src = "fn f(x: Option<u64>) -> u64 { x.unwrap_or(0).max(x.unwrap_or_default()) }";
    assert_eq!(store_findings(src), Vec::<&str>::new());
}

#[test]
fn unwrap_in_cfg_test_module_is_exempt() {
    let src = "\
fn live() {}
#[cfg(test)]
mod tests {
    #[test]
    fn t() { foo().unwrap(); assert_eq!(1, 1); }
}";
    assert_eq!(store_findings(src), Vec::<&str>::new());
}

#[test]
fn unwrap_in_doc_example_is_exempt() {
    let src = "\
/// ```
/// store.insert(1).unwrap();
/// ```
fn live() {}";
    assert_eq!(store_findings(src), Vec::<&str>::new());
}

// ---------------------------------------------------------------- rule 3

#[test]
fn crate_root_without_forbid_unsafe_is_flagged() {
    let src = "pub mod x;";
    assert_eq!(
        check_source("crates/store/src/lib.rs", src)
            .into_iter()
            .map(|d| d.rule)
            .collect::<Vec<_>>(),
        vec!["unsafe-hygiene"]
    );
    // Non-root files don't need the attribute.
    assert_eq!(store_findings("pub fn f() {}"), Vec::<&str>::new());
}

#[test]
fn crate_root_with_forbid_unsafe_is_clean() {
    let src = "#![forbid(unsafe_code)]\npub mod x;";
    assert_eq!(
        check_source("crates/store/src/lib.rs", src).len(),
        0,
        "forbid(unsafe_code) satisfies the rule"
    );
}

#[test]
fn crate_root_with_feature_gated_forbid_is_clean() {
    // The default build still forbids unsafe; an opt-in feature may relax to
    // `deny` + reviewed `// SAFETY:` sites, which rule 3 keeps enforcing.
    let src = "\
#![cfg_attr(not(feature = \"prefetch\"), forbid(unsafe_code))]
#![cfg_attr(feature = \"prefetch\", deny(unsafe_code))]
pub mod x;";
    assert_eq!(
        check_source("crates/store/src/lib.rs", src).len(),
        0,
        "cfg_attr(not(feature), forbid(unsafe_code)) satisfies the rule"
    );
    // A cfg_attr that only *denies* does not count as a forbid.
    let deny_only = "#![cfg_attr(not(feature = \"x\"), deny(unsafe_code))]\npub mod x;";
    assert_eq!(
        check_source("crates/store/src/lib.rs", deny_only)
            .into_iter()
            .map(|d| d.rule)
            .collect::<Vec<_>>(),
        vec!["unsafe-hygiene"]
    );
}

#[test]
fn unsafe_needs_a_safety_comment() {
    let bare = "fn f() { unsafe { std::hint::unreachable_unchecked() } }";
    assert_eq!(bench_findings(bare), vec!["unsafe-hygiene"]);
    let documented = "\
fn f() {
    // SAFETY: guarded by the match above; this arm is provably dead.
    unsafe { std::hint::unreachable_unchecked() }
}";
    assert_eq!(bench_findings(documented), Vec::<&str>::new());
}

// ---------------------------------------------------------------- rule 4

#[test]
fn guard_live_across_fsync_is_flagged() {
    let src = "\
fn checkpoint(&self) -> io::Result<()> {
    let inner = self.inner.lock().expect(\"poisoned\");
    inner.file.sync_all()?;
    Ok(())
}";
    let got = bench_findings(src);
    assert_eq!(got, vec!["guard-across-sync"]);
}

#[test]
fn guard_dropped_before_fsync_is_clean() {
    let src = "\
fn checkpoint(&self) -> io::Result<()> {
    let inner = self.inner.lock().expect(\"poisoned\");
    let file = inner.file.try_clone()?;
    drop(inner);
    file.sync_all()?;
    Ok(())
}";
    assert_eq!(bench_findings(src), Vec::<&str>::new());
}

#[test]
fn guard_scope_ends_at_closing_brace() {
    let src = "\
fn f(&self) -> io::Result<()> {
    {
        let inner = self.inner.lock().expect(\"poisoned\");
        inner.push(1);
    }
    self.file.sync_all()
}";
    assert_eq!(bench_findings(src), Vec::<&str>::new());
}

#[test]
fn annotated_checkpoint_barrier_is_clean() {
    let src = "\
fn cut(&self) -> io::Result<()> {
    // lint: allow(guard-across-sync) WAL lock doubles as the checkpoint barrier
    let inner = self.inner.lock().expect(\"poisoned\");
    inner.file.sync_data()?;
    Ok(())
}";
    assert_eq!(bench_findings(src), Vec::<&str>::new());
}

// ---------------------------------------------------------------- rule 5

#[test]
fn bare_sleep_flagged_outside_tests() {
    let src = "fn wait() { std::thread::sleep(Duration::from_millis(5)); }";
    assert_eq!(bench_findings(src), vec!["bare-sleep"]);
    let annotated = "\
fn wait() {
    // lint: allow(sleep) deliberate backoff while the WAL settles
    std::thread::sleep(Duration::from_millis(5));
}";
    assert_eq!(bench_findings(annotated), Vec::<&str>::new());
    let in_tests = "\
#[cfg(test)]
mod tests {
    fn t() { std::thread::sleep(Duration::from_millis(5)); }
}";
    assert_eq!(bench_findings(in_tests), Vec::<&str>::new());
}

// ---------------------------------------------------------------- rule 8

#[test]
fn instant_now_flagged_in_hot_path_crates() {
    let src = "fn f() { let t0 = Instant::now(); work(); let _ = t0.elapsed(); }";
    assert_eq!(store_findings(src), vec!["instant-in-hot-path"]);
    let qualified = "fn f() { let t0 = std::time::Instant::now(); let _ = t0; }";
    assert_eq!(store_findings(qualified), vec!["instant-in-hot-path"]);
}

#[test]
fn instant_now_allowed_outside_hot_path_crates() {
    // Bench and tooling crates time freely — the rule is scoped.
    let src = "fn f() { let t0 = Instant::now(); work(); let _ = t0.elapsed(); }";
    assert_eq!(bench_findings(src), Vec::<&str>::new());
}

#[test]
fn instant_now_with_timing_annotation_is_clean() {
    let annotated = "\
fn replay(&mut self) {
    // lint: allow(timing) recovery is cold; timing every record is the point
    let t0 = Instant::now();
    let _ = t0;
}";
    assert_eq!(store_findings(annotated), Vec::<&str>::new());
    let in_tests = "\
#[cfg(test)]
mod tests {
    fn t() { let _ = Instant::now(); }
}";
    assert_eq!(store_findings(in_tests), Vec::<&str>::new());
}

#[test]
fn instant_elapsed_alone_is_not_a_site() {
    // Only the `Instant::now` path triggers; using a passed-in Instant is fine.
    let src = "fn f(t0: Instant) -> Duration { t0.elapsed() }";
    assert_eq!(store_findings(src), Vec::<&str>::new());
}

// ------------------------------------------------------- annotation rules

#[test]
fn malformed_annotations_are_findings() {
    let src = "\
fn f(x: &AtomicU64) {
    // lint: ordering(Relaxed)
    x.load(Ordering::Relaxed);
}";
    let mut got = bench_findings(src);
    got.sort();
    // Reason-less annotation is rejected AND the site stays unjustified.
    assert_eq!(got, vec!["atomics-ordering", "bad-annotation"]);
}

#[test]
fn stale_annotations_are_findings() {
    let src = "\
fn f() {
    // lint: allow(panic) nothing here panics any more
    let x = 1;
    let _ = x;
}";
    assert_eq!(store_findings(src), vec!["unused-annotation"]);
}

#[test]
fn diagnostics_render_rustc_style() {
    let d = &check_source(
        "crates/store/src/fixture.rs",
        "fn f(m: &Map) { m.get(0).unwrap(); }",
    )[0];
    let rendered = d.render();
    assert!(rendered.starts_with("error[panic-path]: "), "{rendered}");
    assert!(
        rendered.contains("--> crates/store/src/fixture.rs:1:26"),
        "{rendered}"
    );
}
