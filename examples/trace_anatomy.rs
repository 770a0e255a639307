//! Anatomy of an fsync: trace every block request the stack issues for a
//! single `write + fsync` pair and print the protocol the journal runs —
//! ordered data first, then the log, then the commit record, then the
//! checkpoint. This is Figure 4 of the paper, live.
//!
//! The per-request table is a plain subscriber to the kernel's event
//! stream: it opens a row when the scheduler dispatches a request and
//! fills in the service time when the request finishes.
//!
//! ```sh
//! cargo run --release --example trace_anatomy
//! ```

use sim_block::Request;
use sim_check::{AuditEvent, AuditPlane, Auditor, Checkpoints};
use split_level_io::prelude::*;
use std::cell::RefCell;
use std::rc::Rc;

/// One block request: when it was dispatched and, once it finished, how
/// long the device served it.
struct Row {
    req: Request,
    dispatched: SimTime,
    service: Option<SimDuration>,
}

/// Every dispatched request, in dispatch order; shared with the plane.
#[derive(Clone, Default)]
struct RequestTable(Rc<RefCell<Vec<Row>>>);

impl Auditor for RequestTable {
    fn name(&self) -> &'static str {
        "request-table"
    }

    fn checkpoints(&self) -> Checkpoints {
        Checkpoints::Never
    }

    fn on_event(&mut self, now: SimTime, ev: &AuditEvent<'_>, _out: &mut Vec<String>) {
        let mut rows = self.0.borrow_mut();
        match *ev {
            AuditEvent::BlockDispatched { req } => rows.push(Row {
                req: req.clone(),
                dispatched: now,
                service: None,
            }),
            AuditEvent::BlockFinished { req, service, .. } => {
                if let Some(row) = rows.iter_mut().rev().find(|r| r.req.id == req.id) {
                    row.service = Some(service);
                }
            }
            _ => {}
        }
    }
}

fn main() {
    let mut world = World::new();
    let k = world.add_kernel(
        KernelConfig::default(),
        DeviceKind::hdd(),
        Box::new(BlockOnly::new(Noop::new())),
    );
    let table = RequestTable::default();
    world
        .kernel_mut(k)
        .install_audit_plane(AuditPlane::new(vec![Box::new(table.clone())]));

    // Two processes write to different files; one fsyncs.
    let fa = world.prealloc_file(k, 16 << 20, true);
    let fb = world.prealloc_file(k, 16 << 20, true);
    let mut step_a = 0;
    let a = world.spawn(
        k,
        Box::new(move |_n: SimTime, _l: &Outcome| {
            step_a += 1;
            match step_a {
                1 => ProcAction::Syscall(SyscallKind::Write {
                    file: fa,
                    offset: 0,
                    len: 4096,
                }),
                2 => ProcAction::Syscall(SyscallKind::Fsync { file: fa }),
                _ => ProcAction::Exit,
            }
        }),
    );
    let mut wrote_b = false;
    let b = world.spawn(
        k,
        Box::new(move |_n: SimTime, _l: &Outcome| {
            if !wrote_b {
                wrote_b = true;
                ProcAction::Syscall(SyscallKind::Write {
                    file: fb,
                    offset: 0,
                    len: 64 * 1024,
                })
            } else {
                ProcAction::Exit
            }
        }),
    );
    world.run_for(SimDuration::from_secs(1));

    let kernel = world.kernel(k);
    println!("block requests for A's fsync (A wrote 4 KB; B wrote 64 KB, no fsync):\n");
    println!(
        "{:>13}  {:>8}  {:>10}  {:<8} {:<9} {:>9}  causes",
        "dispatch (ms)", "queue ms", "service ms", "dir", "kind", "submitter"
    );
    for Row {
        req,
        dispatched,
        service,
    } in table.0.borrow().iter()
    {
        let causes: Vec<String> = req.causes.iter().map(|p| p.raw().to_string()).collect();
        let service = service.map_or("-".into(), |d| format!("{:.3}", d.as_millis_f64()));
        println!(
            "{:>13.3}  {:>8.3}  {:>10}  {:<8} {:<9} {:>9}  {{{}}}",
            dispatched.as_millis_f64(),
            dispatched.since(req.submitted_at).as_millis_f64(),
            service,
            // Derived `Debug` ignores width, so pad the rendered names.
            format!("{:?}", req.dir),
            format!("{:?}", req.kind),
            req.submitter.raw(),
            causes.join(",")
        );
    }
    println!(
        "\nA = pid {}, B = pid {}, journal task = pid {}, writeback = pid {}",
        a.raw(),
        b.raw(),
        kernel.journal_pid().raw(),
        kernel.writeback_pid().raw()
    );
    println!("\nNote the entanglement: A's fsync forced B's data out first (ordered");
    println!("mode), and the journal-task I/O carries BOTH pids in its cause set —");
    println!("the cross-layer tags a block-level scheduler never sees.");
}
