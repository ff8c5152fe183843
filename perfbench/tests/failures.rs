//! The benchmark must count a wrong output and exit non-zero on it.

use std::process::Command;

struct Run {
    code: Option<i32>,
    stdout: String,
}

fn run(extra: &[&str]) -> Run {
    let out = Command::new(env!("CARGO_BIN_EXE_memtree-perfbench"))
        .args([
            "--workload",
            "fine-grained",
            "--seconds",
            "0.2",
            "--trace",
            "0",
        ])
        .args(extra)
        .output()
        .expect("the benchmark binary starts");
    Run {
        code: out.status.code(),
        stdout: String::from_utf8_lossy(&out.stdout).into_owned(),
    }
}

/// The integer after `"key": ` in the result line.
fn field(line: &str, key: &str) -> u64 {
    let pat = format!("\"{key}\": ");
    let at = line.find(&pat).expect("result line has the key") + pat.len();
    line[at..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect::<String>()
        .parse()
        .expect("an integer count")
}

#[test]
fn clean_run_exits_zero_with_no_failures() {
    let r = run(&[]);
    let last = r.stdout.lines().last().expect("a result line");
    assert_eq!(r.code, Some(0), "{}", r.stdout);
    assert!(last.starts_with("{\"correct\": true"), "{last}");
    assert_eq!(field(last, "failed"), 0);
    assert!(field(last, "attempted") > 0);
    assert!(r.stdout.contains("# failed_frac=0 "), "{}", r.stdout);
}

#[test]
fn failing_payload_raises_failed_frac_and_the_exit_code() {
    let r = run(&["--fail-at", "3"]);
    let last = r.stdout.lines().last().expect("a result line");
    assert_eq!(r.code, Some(1), "{}", r.stdout);
    assert!(last.starts_with("{\"correct\": false"), "{last}");
    assert!(field(last, "failed") > 0, "{last}");
    assert!(!r.stdout.contains("# failed_frac=0 "), "{}", r.stdout);
    assert!(r.stdout.contains("# FAILED sharded"), "{}", r.stdout);
}
