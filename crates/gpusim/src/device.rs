//! The GPU device object: memory allocation, stream creation, and CUDA-IPC
//! style peer mappings.

use std::sync::Arc;

use parcomm_sim::{Mutex, SimHandle};

use parcomm_obs::MetricsRegistry;

use crate::cost::CostModel;
use crate::faults::{EmissionFaultConfig, EmissionFaultTable, EmissionFaults};
use crate::kernel::EmissionKind;
use crate::mem::{Buffer, Location, MemSpace, Unit};
use crate::obs::GpuObs;
use crate::stream::Stream;

/// Identity of a GPU in the cluster.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub struct GpuId {
    /// Node (host) index.
    pub node: u16,
    /// GPU index on that node.
    pub index: u8,
}

impl GpuId {
    /// The fabric location of this GPU.
    pub fn location(self) -> Location {
        Location { node: self.node, unit: Unit::Gpu(self.index) }
    }
}

impl std::fmt::Display for GpuId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "gpu{}.{}", self.node, self.index)
    }
}

struct GpuInner {
    id: GpuId,
    cost: CostModel,
    handle: SimHandle,
    /// Armed emission fault schedules, shared with every stream of this GPU.
    emission_faults: Arc<Mutex<EmissionFaultTable>>,
    /// Observability state (rank attribution + metrics), shared with every
    /// stream of this GPU. Inert until armed.
    obs: Arc<GpuObs>,
}

/// A simulated GPU (one Hopper die of a GH200 superchip).
#[derive(Clone)]
pub struct Gpu {
    inner: Arc<GpuInner>,
}

/// Error opening an IPC mapping.
#[derive(Debug, PartialEq, Eq)]
pub enum IpcError {
    /// IPC handles only work between GPUs on the same node.
    CrossNode,
    /// The buffer is not in GPU global memory.
    NotDeviceMemory,
}

impl std::fmt::Display for IpcError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IpcError::CrossNode => write!(f, "cuIpcOpenMemHandle: peer GPU is on a different node"),
            IpcError::NotDeviceMemory => write!(f, "cuIpcGetMemHandle: buffer is not device memory"),
        }
    }
}

impl std::error::Error for IpcError {}

/// A peer GPU buffer mapped into this GPU's address space via CUDA IPC
/// (`cuIpcOpenMemHandle`), as used by the Kernel Copy path (paper §IV-A4).
/// Kernel bodies can store directly through it; the NVLink transfer time is
/// modeled by the caller via the fabric.
#[derive(Clone, Debug)]
pub struct IpcMappedBuffer {
    /// The peer buffer this mapping aliases.
    pub buffer: Buffer,
    /// The GPU that opened the mapping.
    pub opened_by: GpuId,
}

impl Gpu {
    /// Create a GPU with the given identity and cost model.
    pub fn new(id: GpuId, cost: CostModel, handle: SimHandle) -> Self {
        Gpu {
            inner: Arc::new(GpuInner {
                id,
                cost,
                handle,
                emission_faults: Arc::default(),
                obs: Arc::new(GpuObs::default()),
            }),
        }
    }

    /// Attribute this GPU's trace spans (kernels, stream syncs, and the
    /// notifications chained to them) to an MPI rank. Applies to existing
    /// and future streams; spans recorded earlier stay unattributed.
    pub fn set_rank(&self, rank: u32) {
        self.inner.obs.set_rank(rank);
    }

    /// Attach metrics instruments (`gpu.kernels`, `gpu.emissions`,
    /// `gpu.stream_syncs`) to the given registry. Counts from every GPU
    /// attached to the same registry aggregate into the same instruments.
    pub fn attach_metrics(&self, registry: &MetricsRegistry) {
        self.inner.obs.attach(registry);
    }

    /// Arm a deterministic fault schedule for this GPU's `kind` emissions
    /// (device flag writes, or symmetric-heap puts/signals): every N-th one
    /// is delayed or lost across all of the device's streams (existing and
    /// future). Each kind keeps its own schedule and counter, so chaos
    /// campaigns can target one copy mechanism without perturbing the
    /// other. See [`EmissionFaultConfig`].
    pub fn arm_emission_faults(&self, kind: EmissionKind, cfg: EmissionFaultConfig) {
        self.inner.emission_faults.lock()[kind as usize] = Some(EmissionFaults::new(cfg));
    }

    /// This GPU's identity.
    pub fn id(&self) -> GpuId {
        self.inner.id
    }

    /// The device's cost model.
    pub fn cost(&self) -> &CostModel {
        &self.inner.cost
    }

    /// The simulation handle this device schedules on.
    pub fn sim(&self) -> &SimHandle {
        &self.inner.handle
    }

    /// Allocate GPU global (HBM) memory.
    pub fn alloc_global(&self, len: usize) -> Buffer {
        Buffer::alloc(
            MemSpace::Device { node: self.inner.id.node, gpu: self.inner.id.index },
            len,
        )
    }

    /// Allocate page-locked host memory accessible by this device over
    /// NVLink-C2C (`cudaMallocHost`).
    pub fn alloc_pinned_host(&self, len: usize) -> Buffer {
        Buffer::alloc(MemSpace::PinnedHost { node: self.inner.id.node }, len)
    }

    /// Create a new stream on this device.
    pub fn create_stream(&self) -> Stream {
        Stream::new(
            self.inner.cost.clone(),
            self.inner.handle.clone(),
            self.inner.id.to_string(),
            self.inner.emission_faults.clone(),
            self.inner.obs.clone(),
        )
    }

    /// Open a CUDA-IPC mapping of a peer GPU's buffer. Only valid for
    /// device-memory buffers on the *same node* (the NVLink domain); this is
    /// the substrate for `ucp_rkey_ptr` in the modified IPC transport.
    pub fn ipc_open(&self, peer: &Buffer) -> Result<IpcMappedBuffer, IpcError> {
        match peer.space() {
            MemSpace::Device { node, .. } if node == self.inner.id.node => {
                Ok(IpcMappedBuffer { buffer: peer.clone(), opened_by: self.inner.id })
            }
            MemSpace::Device { .. } => Err(IpcError::CrossNode),
            _ => Err(IpcError::NotDeviceMemory),
        }
    }
}

impl std::fmt::Debug for Gpu {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Gpu").field("id", &self.inner.id).finish()
    }
}
