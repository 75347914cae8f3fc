//! `symbolc` as a user runs it: a program the compiler cannot handle
//! must end in an error message and a non-zero exit, never a panic;
//! a program it can handle runs on every configuration it reports.

use std::process::Command;

#[test]
fn run_on_a_variable_goal_fails_cleanly() {
    let path = std::env::temp_dir().join(format!("symbolc-var-goal-{}.pl", std::process::id()));
    std::fs::write(&path, "main :- X.\n").expect("write the program");
    let out = Command::new(env!("CARGO_BIN_EXE_symbolc"))
        .arg("run")
        .arg(&path)
        .output()
        .expect("symbolc starts");
    let _ = std::fs::remove_file(&path);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "symbolc run succeeded: {stderr}");
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("variable goal X"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}

#[test]
fn run_on_a_machine_with_no_units_fails_cleanly() {
    let path = std::env::temp_dir().join(format!("symbolc-no-units-{}.pl", std::process::id()));
    std::fs::write(&path, "main :- X is 2 + 3, X = 5.\n").expect("write the program");
    for cmd in ["run", "schedule"] {
        let out = Command::new(env!("CARGO_BIN_EXE_symbolc"))
            .arg(cmd)
            .arg(&path)
            .arg("0")
            .output()
            .expect("symbolc starts");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{cmd}: {stderr}");
        assert!(
            stderr.contains("the machine has no issue slot"),
            "{cmd}: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "{cmd}: {stderr}");
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn sweep_prints_one_checked_line_per_configuration() {
    let path = std::env::temp_dir().join(format!("symbolc-sweep-{}.pl", std::process::id()));
    std::fs::write(&path, "main :- X is 2 + 3, X = 5.\n").expect("write the program");
    let out = Command::new(env!("CARGO_BIN_EXE_symbolc"))
        .arg("sweep")
        .arg(&path)
        .output()
        .expect("symbolc starts");
    let _ = std::fs::remove_file(&path);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let lines: Vec<&str> = stdout.lines().collect();
    let configs = [
        "bam",
        "1 unit(s)",
        "2 unit(s)",
        "3 unit(s)",
        "4 unit(s)",
        "5 unit(s)",
    ];
    assert_eq!(lines.len(), 1 + configs.len(), "{stdout}");
    assert!(lines[0].starts_with("sequential: "), "{stdout}");
    for (line, name) in lines[1..].iter().zip(configs) {
        assert!(line.starts_with(name), "{line}");
        assert!(line.contains(" cycles   speed-up "), "{line}");
    }
}
