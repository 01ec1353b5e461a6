//! Typed errors of the symmetric-heap backend.

use parcomm_gpu::Location;
use parcomm_net::RouteClass;

/// Errors surfaced by the symmetric heap and the device-initiated
/// one-sided path built on it.
#[derive(Debug, Clone, PartialEq)]
pub enum ShmemError {
    /// A symmetric bind asked for more bytes than the rank's segment has
    /// left. Segments are sized once at world construction
    /// (`WorldConfig::shmem_heap_bytes`); the heap never grows.
    HeapExhausted {
        /// Bytes the bind requested (after alignment padding).
        requested: u64,
        /// Bytes remaining in the segment.
        remaining: u64,
    },
    /// A symmetric offset violates the heap's alignment contract. Device
    /// puts and signals address the heap in aligned words; a misaligned
    /// offset can never have come from [`crate::SymmetricHeap::bind`].
    Misaligned {
        /// The offending offset.
        offset: u64,
        /// The required alignment.
        align: u64,
    },
    /// A symmetric access targeted a rank whose segment is not registered,
    /// or an offset range no bind covers. Translation is local — there is
    /// no remote fault handler to page the access in.
    UnregisteredAccess {
        /// The target rank.
        rank: usize,
        /// The offending symmetric offset within the rank's segment.
        offset: u64,
    },
    /// The rank's heap segment failed to register at world construction
    /// (fault hook): every symmetric operation involving it is refused and
    /// channels fall back to the Progression Engine.
    RegistrationFailed {
        /// The rank whose registration failed.
        rank: usize,
    },
    /// The route between the two GPUs does not support symmetric access
    /// (device-initiated stores need the NVLink-class path; cross-node IB
    /// puts go through the host proxy — i.e. the Progression Engine).
    RouteForbidden {
        /// Initiator GPU location.
        src: Location,
        /// Target GPU location.
        dst: Location,
        /// The classified route.
        class: RouteClass,
    },
}

impl std::fmt::Display for ShmemError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShmemError::HeapExhausted { requested, remaining } => write!(
                f,
                "symmetric heap exhausted: bind of {requested} B with {remaining} B remaining"
            ),
            ShmemError::Misaligned { offset, align } => {
                write!(f, "symmetric offset {offset:#x} violates {align}-byte alignment")
            }
            ShmemError::UnregisteredAccess { rank, offset } => write!(
                f,
                "unregistered symmetric access: rank {rank} offset {offset:#x} is not bound"
            ),
            ShmemError::RegistrationFailed { rank } => {
                write!(f, "symmetric heap registration failed on rank {rank}")
            }
            ShmemError::RouteForbidden { src, dst, class } => write!(
                f,
                "route {src:?} -> {dst:?} ({class:?}) forbids symmetric access"
            ),
        }
    }
}

impl std::error::Error for ShmemError {}
