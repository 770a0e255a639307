//! Cloud isolation (§7.2): two QEMU-like guests on one host; the noisy
//! neighbour's whole VM is throttled on the host with Split-Token.
//! Guest kernels are vanilla — all scheduling happens below them.
//!
//! ```sh
//! cargo run --release --example cloud_isolation
//! ```

use split_level_io::apps::vmm::launch_guest;
use split_level_io::prelude::*;

fn main() {
    let mut world = World::new();
    // The host: HDD + Split-Token.
    let host = world.add_kernel(
        KernelConfig::default(),
        DeviceKind::hdd(),
        Box::new(SplitToken::new()),
    );

    // Two guests, each with its own kernel, page cache and virtual disk.
    let vm_a = launch_guest(&mut world, host);
    let vm_b = launch_guest(&mut world, host);

    const GB: u64 = 1 << 30;
    // Tenant A streams inside its VM.
    let a_file = world.prealloc_file(vm_a.kernel, 2 * GB, true);
    let a = world.spawn(
        vm_a.kernel,
        Box::new(SeqReader::new(a_file, 2 * GB, 1 << 20)),
    );
    // Tenant B hammers random reads inside its VM.
    let b_file = world.prealloc_file(vm_b.kernel, 2 * GB, false);
    let b = world.spawn(
        vm_b.kernel,
        Box::new(RandReader::new(b_file, 2 * GB, 4096, 9)),
    );

    // Throttle *the whole B VM*: the host-side VMM process that performs
    // B's I/O is the unit of accounting.
    world.configure(host, vm_b.vmm_pid, SchedAttr::TokenRate(1 << 20)); // 1 MB/s

    let window = SimDuration::from_secs(10);
    world.run_for(window);

    let a_mbps = world.kernel(vm_a.kernel).stats.read_mbps(a, window);
    let b_mbps = world.kernel(vm_b.kernel).stats.read_mbps(b, window);
    println!("tenant A (unthrottled VM): {a_mbps:6.1} MB/s");
    println!("tenant B (1 MB/s cap VM):  {b_mbps:6.1} MB/s");
    assert!(a_mbps > 50.0, "A's VM must be isolated from B's seek storm");
    println!("\nB's random reads were charged their true device cost on the host,");
    println!("so tenant A kept its bandwidth (the paper's Figure 20).");
}
