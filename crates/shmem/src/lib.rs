//! # parcomm-shmem — the symmetric-heap one-sided backend
//!
//! The third copy mechanism of the partitioned stack (beside the host
//! Progression Engine and Kernel Copy): an NVSHMEM-style **symmetric
//! memory heap** registered once at world construction, plus the typed
//! error surface of device-initiated `put`/`signal` operations that
//! translate symmetric offsets locally and hit the fabric without a host
//! PE hop or any rkey exchange.
//!
//! This crate owns the heap model ([`SymmetricHeap`]), the typed
//! [`ShmemError`], and the `shmem.*` metrics ([`ShmemInstruments`]). The
//! device timing model lives in `parcomm-gpu` (put-issue/signal costs and
//! the shmem emission fault schedule); the wire path is composed in
//! `parcomm-core`, which drives the fabric directly from the device
//! emission — no UCP endpoint, no progression-engine hook.
//!
//! Every [`ShmemError`] is a setup-time verdict (bind, translation,
//! registration, route). The put itself cannot fail: channels bind only
//! intra-node routes, which never pick a NIC, so no fabric fault can
//! refuse the transfer — drops and spikes only delay it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod heap;
mod obs;

pub use error::ShmemError;
pub use heap::{SymmetricHeap, SHMEM_ALIGN};
pub use obs::ShmemInstruments;
