//! End-to-end tests of the `probdb-lint` binary over known-bad and
//! known-clean fixtures, asserted through the `--json` output, plus the
//! self-test: the workspace's own sources must be lint-clean.

use std::path::PathBuf;
use std::process::{Command, Output};

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn run_lint(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_probdb-lint"))
        .args(args)
        .output()
        .expect("run probdb-lint")
}

/// Runs the linter on one fixture with `--json` and returns (stdout, exit
/// status). `extra` precedes the path (e.g. `--p1-everywhere`).
fn lint_fixture(name: &str, extra: &[&str]) -> (String, i32) {
    let path = fixture(name);
    let mut args: Vec<&str> = vec!["--json", "--deny-all"];
    args.extend_from_slice(extra);
    let path_s = path.to_string_lossy().into_owned();
    args.push(&path_s);
    let out = run_lint(&args);
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        out.status.code().unwrap_or(-1),
    )
}

#[test]
fn u1_bad_flags_block_and_fn() {
    let (json, code) = lint_fixture("u1_bad.rs", &[]);
    assert_eq!(code, 1, "{json}");
    assert!(json.contains("\"lint\":\"U1\""), "{json}");
    assert!(json.contains("`unsafe block`"), "{json}");
    assert!(json.contains("`unsafe fn`"), "{json}");
}

#[test]
fn u1_clean_accepts_safety_comment_and_doc_section() {
    let (json, code) = lint_fixture("u1_clean.rs", &[]);
    assert_eq!(code, 0, "{json}");
    assert!(json.contains("\"findings\":[]"), "{json}");
}

#[test]
fn p1_bad_flags_every_panic_shape() {
    let (json, code) = lint_fixture("p1_bad.rs", &["--p1-everywhere"]);
    assert_eq!(code, 1, "{json}");
    assert!(json.contains("`.unwrap()`"), "{json}");
    assert!(json.contains("`.expect()`"), "{json}");
    assert!(json.contains("`panic!`"), "{json}");
    assert!(json.contains("indexing `parts[…]`"), "{json}");
    assert!(json.contains("indexing `options[…]`"), "{json}");
}

#[test]
fn p1_clean_passes() {
    let (json, code) = lint_fixture("p1_clean.rs", &["--p1-everywhere"]);
    assert_eq!(code, 0, "{json}");
    assert!(json.contains("\"findings\":[]"), "{json}");
}

#[test]
fn suppression_with_reason_waives_the_finding() {
    let (json, code) = lint_fixture("suppressed_clean.rs", &["--p1-everywhere"]);
    assert_eq!(code, 0, "{json}");
    assert!(json.contains("\"findings\":[]"), "{json}");
    assert!(json.contains("\"suppressed\":1"), "{json}");
}

#[test]
fn a1_bad_traces_allocation_to_hot_root() {
    let (json, code) = lint_fixture("a1_bad.rs", &["--hot-everywhere"]);
    assert_eq!(code, 1, "{json}");
    assert!(json.contains("\"lint\":\"A1\""), "{json}");
    assert!(
        json.contains("`vec!` allocates inside `fn widen`"),
        "{json}"
    );
    // The allocation is one hop from the root: the trace must show the hop.
    assert!(json.contains("::eval] -> "), "{json}");
    assert!(json.contains("::widen ("), "{json}");
}

#[test]
fn a1_clean_amortized_push_and_cold_setup_pass() {
    let (json, code) = lint_fixture("a1_clean.rs", &["--hot-everywhere"]);
    assert_eq!(code, 0, "{json}");
    assert!(json.contains("\"findings\":[]"), "{json}");
}

#[test]
fn b1_bad_traces_block_to_worker_root() {
    let (json, code) = lint_fixture("b1_bad.rs", &["--hot-everywhere"]);
    assert_eq!(code, 1, "{json}");
    assert!(json.contains("\"lint\":\"B1\""), "{json}");
    assert!(
        json.contains("`counter.lock()` blocks inside `fn bump`"),
        "{json}"
    );
    assert!(json.contains("::worker_loop] -> "), "{json}");
    assert!(json.contains("::bump ("), "{json}");
    // A `let`-bound guard held across a call to a closure parameter.
    assert!(
        json.contains("`slot.lock()` blocks inside `fn fill`"),
        "{json}"
    );
}

#[test]
fn b1_lock_order_bad_flags_cycle_reentry_and_guards_across_send_and_scope() {
    let (json, code) = lint_fixture("b1_lock_order_bad.rs", &[]);
    assert_eq!(code, 1, "{json}");
    assert!(json.contains("lock-order cycle"), "{json}");
    assert!(json.contains("alpha"), "{json}");
    assert!(json.contains("beta"), "{json}");
    assert!(
        json.contains("while a guard on it is already held"),
        "{json}"
    );
    assert!(json.contains("held across `tx.send()`"), "{json}");
    assert!(json.contains("held across `scope()`"), "{json}");
    assert_eq!(json.matches("\"lint\":\"B1\"").count(), 4, "{json}");
}

#[test]
fn b1_lock_order_clean_passes() {
    let (json, code) = lint_fixture("b1_lock_order_clean.rs", &[]);
    assert_eq!(code, 0, "{json}");
    assert!(json.contains("\"findings\":[]"), "{json}");
}

#[test]
fn b1_flags_a_cycle_whose_second_lock_is_two_calls_below_the_guard() {
    let (json, code) = lint_fixture("b1_two_hop_cycle_bad.rs", &[]);
    assert_eq!(code, 1, "{json}");
    assert!(json.contains("\"lint\":\"B1\""), "{json}");
    assert!(json.contains("lock-order cycle"), "{json}");
    assert!(json.contains("via call to `helper`"), "{json}");
}

#[test]
fn b1_clean_bounded_critical_sections_pass() {
    let (json, code) = lint_fixture("b1_clean.rs", &["--hot-everywhere"]);
    assert_eq!(code, 0, "{json}");
    assert!(json.contains("\"findings\":[]"), "{json}");
}

#[test]
fn f1_bad_flags_hash_loop_reaching_float_accumulator() {
    let (json, code) = lint_fixture("f1_bad.rs", &["--hot-everywhere"]);
    assert_eq!(code, 1, "{json}");
    assert!(json.contains("\"lint\":\"F1\""), "{json}");
    assert!(
        json.contains("hash-ordered iteration over `probs`"),
        "{json}"
    );
    assert!(
        json.contains("reaches floating-point accumulation"),
        "{json}"
    );
}

#[test]
fn f1_clean_sorted_iteration_passes() {
    let (json, code) = lint_fixture("f1_clean.rs", &["--hot-everywhere"]);
    assert_eq!(code, 0, "{json}");
    assert!(json.contains("\"findings\":[]"), "{json}");
}

#[test]
fn f1_sinks_bad_flags_accumulation_and_output_in_the_hash_region() {
    let (json, code) = lint_fixture("f1_sinks_bad.rs", &[]);
    assert_eq!(code, 1, "{json}");
    assert!(
        json.contains("hash-ordered iteration over `weights` feeds floating-point accumulation"),
        "{json}"
    );
    assert!(
        json.contains("hash-ordered loop over `members` feeds formatted output"),
        "{json}"
    );
    assert_eq!(json.matches("\"lint\":\"F1\"").count(), 2, "{json}");
}

#[test]
fn f1_sinks_clean_passes() {
    let (json, code) = lint_fixture("f1_sinks_clean.rs", &[]);
    assert_eq!(code, 0, "{json}");
    assert!(json.contains("\"findings\":[]"), "{json}");
}

#[test]
fn interproc_fixtures_resolve_every_call_site() {
    // The fixtures exercise free-fn, method, and cross-fn resolution; all
    // of their call sites must resolve (the workspace floor is 80%).
    for name in ["a1_bad.rs", "b1_bad.rs", "f1_bad.rs"] {
        let (json, _) = lint_fixture(name, &["--hot-everywhere"]);
        assert!(
            json.contains("\"resolution_rate\":1.0000"),
            "{name}: {json}"
        );
    }
}

#[test]
fn workspace_is_lint_clean() {
    // The self-test: every invariant the linter encodes holds on the
    // workspace's own sources, with warnings promoted to errors — the same
    // gate CI runs.
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let out = Command::new(env!("CARGO_BIN_EXE_probdb-lint"))
        .args(["--workspace", "--deny-all", "--json"])
        .current_dir(&root)
        .output()
        .expect("run probdb-lint");
    let json = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "{json}");
    assert!(json.contains("\"findings\":[]"), "{json}");
    assert!(json.contains("\"failed\":false"), "{json}");
}
