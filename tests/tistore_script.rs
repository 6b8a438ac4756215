//! `tistore --script` end to end: the committed session in
//! `tests/tistore/session.tistore` uses every shell command, and its
//! stdout and exit status are pinned here.

use std::process::Command;

const SCRIPT: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/tistore/session.tistore");

const EXPECTED: &str = "\
created /lectures/fall/week1.mp4 (40.00 MiB)
created /lectures/fall/week2.mp4 (30.00 MiB)
created /scratch/tmp.bin (20.00 MiB)
created /scratch/notes.txt (1.00 MiB)
week1.mp4
week2.mp4
/lectures/fall/week1.mp4: 40.00 MiB importance 1.0000 created day 0 expires day 60
advanced to d45+00:00 (day 45)
/lectures/fall/week1.mp4: 40.00 MiB importance 0.5000 created day 0 expires day 60
/lectures/fall/week1.mp4: 40.00 MiB importance 1.0000 created day 0 expires day 165
density 0.4700  used 91.00 MiB / 100.00 MiB
a 50.00 MiB file needs importance > 0.2000
a full-importance 15d+15d annotation would survive ~27d
advanced to d60+00:00 (day 60)
reclaimed 1 expired file(s)
week1.mp4
lectures/
d60+00:00 (day 60)
";

#[test]
fn the_committed_session_prints_its_pinned_output_and_succeeds() {
    let output = Command::new(env!("CARGO_BIN_EXE_tistore"))
        .args(["--capacity", "100MiB", "--script", SCRIPT])
        .output()
        .expect("run tistore");
    let stdout = String::from_utf8(output.stdout).expect("utf-8 stdout");
    assert_eq!(stdout, EXPECTED);
    assert_eq!(
        output.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&output.stderr)
    );
}
