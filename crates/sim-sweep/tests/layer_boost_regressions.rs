//! The layer arbiter's fsync-boost hang, pinned by the three programs
//! `runner check --programs 50 --shrink` minimized it to (indices 24, 32
//! and 33 at root seed 0). All one shape: a latency-layer `fsync` on a
//! shared file while a non-latency process writes and then reads the
//! same file. The read parked for the boost window, and the arbiter
//! stopped polling that layer's child altogether — freezing the write
//! queued behind it, which was ordered data the boosted fsync waited on.
//! Each must drain and agree with the noop reference on both devices.

use sim_check::ProgramSpec;
use sim_experiments::setup::{DeviceChoice, SchedChoice};
use sim_sweep::check::run_one;

fn assert_drains_like_noop(text: &str) {
    let spec = ProgramSpec::parse(text).expect("reproducer parses");
    for device in DeviceChoice::ALL {
        let reference = run_one(&spec, SchedChoice::Noop, device, None);
        let layered = run_one(&spec, SchedChoice::Layered, device, None);
        assert_eq!(
            layered.violations,
            Vec::<String>::new(),
            "layered/{}",
            device.name()
        );
        assert_eq!(
            layered.per_proc,
            reference.per_proc,
            "layered/{} diverges from noop",
            device.name()
        );
    }
}

#[test]
fn program_24_sleeping_fsync_beside_a_write_then_a_large_read() {
    assert_drains_like_noop(
        "program shared=1 bytes=1048576\n\
         proc\n\
         write s0 86162 16384\n\
         sleep 1993\n\
         fsync s0\n\
         end\n\
         proc\n\
         write s0 1046265 16384\n\
         read s0 7254 264347\n\
         end\n",
    );
}

#[test]
fn program_32_one_byte_write_and_fsync_beside_a_write_then_a_read() {
    assert_drains_like_noop(
        "program shared=1 bytes=1048576\n\
         proc\n\
         write s0 22570 1\n\
         fsync s0\n\
         end\n\
         proc\n\
         end\n\
         proc\n\
         write s0 304797 1674\n\
         read s0 73525 376\n\
         end\n",
    );
}

#[test]
fn program_33_read_then_fsync_beside_a_write_then_two_reads() {
    assert_drains_like_noop(
        "program shared=1 bytes=1048576\n\
         proc\n\
         read s0 983410 16384\n\
         fsync s0\n\
         end\n\
         proc\n\
         write s0 1044769 5776\n\
         read s0 627759 67198\n\
         read s0 1044003 262144\n\
         end\n",
    );
}
