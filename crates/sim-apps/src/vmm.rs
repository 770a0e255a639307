//! A QEMU-like virtual-machine assembly (§7.2).
//!
//! The guest is a complete simulated kernel (vanilla scheduler) whose
//! virtual disk is a file on the host kernel; guest block I/O becomes
//! host file syscalls issued by a per-VM host process — which is exactly
//! the process the host's scheduler throttles, so throttling applies to
//! the whole VM.

use sim_block::Noop;
use sim_cache::CacheConfig;
use sim_core::{FileId, KernelId, Pid};
use sim_kernel::{DeviceKind, KernelConfig, World};
use split_core::BlockOnly;

/// Virtual disk (host file) size.
const DISK_BYTES: u64 = 4 * 1024 * 1024 * 1024;

/// Guest RAM.
const MEM_BYTES: u64 = 256 * 1024 * 1024;

/// Guest cores.
const CORES: u32 = 4;

/// A running guest.
#[derive(Debug, Clone, Copy)]
pub struct GuestHandle {
    /// The guest kernel.
    pub kernel: KernelId,
    /// The host-side VMM process that performs the VM's I/O (throttle
    /// this pid on the host to throttle the whole VM).
    pub vmm_pid: Pid,
    /// The host file backing the virtual disk.
    pub image: FileId,
}

/// Launch a guest on `host`. The guest runs a vanilla kernel (noop block
/// elevator), as in the paper — scheduling happens on the host.
pub fn launch_guest(world: &mut World, host: KernelId) -> GuestHandle {
    let image = world.prealloc_file(host, DISK_BYTES, true);
    let vmm_pid = world.spawn_external(host);
    let guest = world.add_kernel(
        KernelConfig {
            cache: CacheConfig {
                mem_bytes: MEM_BYTES,
                ..Default::default()
            },
            cores: CORES,
            ..Default::default()
        },
        DeviceKind::virtio(host, image, vmm_pid),
        Box::new(BlockOnly::new(Noop::new())),
    );
    GuestHandle {
        kernel: guest,
        vmm_pid,
        image,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_core::SimDuration;
    use sim_workloads::SeqReader;

    #[test]
    fn guest_io_flows_through_the_host_vmm_process() {
        let mut w = World::new();
        let host = w.add_kernel(
            KernelConfig::default(),
            DeviceKind::hdd(),
            Box::new(BlockOnly::new(Noop::new())),
        );
        let guest = launch_guest(&mut w, host);
        let gfile = w.prealloc_file(guest.kernel, 1024 * 1024 * 1024, true);
        let pid = w.spawn(
            guest.kernel,
            Box::new(SeqReader::new(gfile, 1024 * 1024 * 1024, 256 * 1024)),
        );
        w.run_for(SimDuration::from_secs(1));
        let guest_bytes = w.kernel(guest.kernel).stats.proc(pid).unwrap().read_bytes;
        assert!(guest_bytes > 10 * 1024 * 1024, "guest read {guest_bytes}");
        let host_vmm = w.kernel(host).stats.proc(guest.vmm_pid).unwrap();
        assert!(host_vmm.reads > 0, "host did the I/O for the VMM process");
    }
}
