#![warn(missing_docs)]
//! Applications built on the simulated storage stack, used by §7 of the
//! paper: a SQLite-like embedded database ([`minidb`]), a
//! PostgreSQL/pgbench-like transaction mix ([`pgsim`]), a QEMU-like
//! virtual-machine assembly ([`vmm`]), and an HDFS-like replicated
//! distributed file system ([`dfs`]). The [`net`] module is the fleet
//! network model the `sim-cluster` crate rides on.

pub mod dfs;
pub mod minidb;
pub mod net;
pub mod pgsim;
pub mod vmm;

pub use dfs::{DfsCluster, DfsConfig, DfsError};
pub use minidb::{Checkpointer, MiniDbConfig, MiniDbShared, TxnWorker};
pub use net::Net;
pub use pgsim::{PgCheckpointer, PgConfig, PgShared, PgWorker};
pub use vmm::{launch_guest, GuestHandle};
