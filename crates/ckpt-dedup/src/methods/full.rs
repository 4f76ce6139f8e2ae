//! The **Full** baseline: store every checkpoint in its entirety.
//!
//! Its "de-duplication throughput" is simply the device-to-host flush
//! throughput of the whole buffer (§3.2), which is what the other methods
//! must beat after paying their compute overhead.

use crate::bytes::Bytes;
use crate::chunking::Chunking;
use crate::diff::{Diff, MethodKind};
use crate::methods::{CheckpointOutput, Checkpointer, Timer};
use crate::stats::CheckpointStats;
use gpu_sim::Device;

/// The Full method. Stateless apart from the checkpoint counter.
pub struct FullCheckpointer {
    device: Device,
    chunk_size: usize,
    ckpt_id: u32,
    data_len: Option<usize>,
}

impl FullCheckpointer {
    /// `chunk_size` only annotates the diff header (Full does not chunk).
    pub fn new(device: Device, chunk_size: usize) -> Self {
        FullCheckpointer {
            device,
            chunk_size,
            ckpt_id: 0,
            data_len: None,
        }
    }
}

impl Checkpointer for FullCheckpointer {
    fn kind(&self) -> MethodKind {
        MethodKind::Full
    }

    fn checkpoint(&mut self, data: &[u8]) -> CheckpointOutput {
        let timer = Timer::start(&self.device);
        let ckpt_id = self.ckpt_id;
        match self.data_len {
            None => self.data_len = Some(data.len()),
            Some(l) => assert_eq!(data.len(), l, "checkpoint size changed mid-record"),
        }
        // Validate chunk geometry eagerly (same constraints as the others).
        let chunking = Chunking::new(data.len(), self.chunk_size);

        // One full-size device-to-host flush.
        self.device.account_d2h_bytes(data.len() as u64);
        let payload = data.to_vec();

        let diff = Diff {
            kind: MethodKind::Full,
            ckpt_id,
            data_len: data.len() as u64,
            chunk_size: chunking.chunk_size() as u32,
            first_regions: Vec::new(),
            shift_regions: Vec::new(),
            bitmap: Bytes::default(),
            payload: payload.into(),
        };
        let stats = CheckpointStats::of(&diff, 0, 0, 0, timer.stop(&self.device));
        self.ckpt_id += 1;
        CheckpointOutput::with_total_breakdown(diff, stats)
    }

    fn reset_record(&mut self) {
        self.ckpt_id = 0;
    }
}
