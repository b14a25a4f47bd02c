//! BPU partitioning (§10.2 "Partitioning the BPU").

use bscope_bpu::VirtAddr;
use bscope_uarch::{BpuPolicy, ContextId, Route};

/// Partitions the predictor tables between hardware contexts: each context
/// is confined to its own slice of the index space, so "the attacker loses
/// the ability to create collisions with the victim" (§10.2). SGX code
/// using a separate predictor is the `partitions = 2` special case.
///
/// The index transformation folds the architectural address into
/// `table_span / partitions` entries and offsets it by the context's
/// partition base. `table_span` should be (a multiple of) the machine's
/// PHT size so the partitions tile the real tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PartitionedBpuPolicy {
    table_span: u64,
    partitions: u32,
}

impl PartitionedBpuPolicy {
    /// Splits a `table_span`-entry index space into `partitions` slices.
    ///
    /// # Panics
    ///
    /// Panics unless `table_span` is a power of two, `partitions` is a
    /// power of two, and `partitions <= table_span`.
    #[must_use]
    pub fn new(table_span: u64, partitions: u32) -> Self {
        assert!(table_span.is_power_of_two(), "table span must be a power of two");
        assert!(partitions.is_power_of_two(), "partition count must be a power of two");
        assert!(u64::from(partitions) <= table_span, "more partitions than entries");
        PartitionedBpuPolicy { table_span, partitions }
    }

    /// Entries available to each context.
    #[must_use]
    fn partition_size(&self) -> u64 {
        self.table_span / u64::from(self.partitions)
    }
}

impl BpuPolicy for PartitionedBpuPolicy {
    fn route(&mut self, ctx: ContextId, addr: VirtAddr, _tsc: u64) -> Route {
        let slice = self.partition_size();
        let base = u64::from(ctx % self.partitions) * slice;
        // Preserve the high address bits so BTB tags still distinguish
        // branches; only the low (index) bits are partitioned.
        Route::Predict((addr & !(self.table_span - 1)) | base | (addr % slice))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The low (index) bits of the predictor address `p` routes `addr` of
    /// `ctx` to, within a `span`-entry table.
    fn low_bits(mut p: PartitionedBpuPolicy, ctx: ContextId, addr: VirtAddr, span: u64) -> u64 {
        match p.route(ctx, addr, 0) {
            Route::Predict(indexed) => indexed & (span - 1),
            other => panic!("partitioning always predicts, got {other:?}"),
        }
    }

    #[test]
    fn contexts_map_to_disjoint_slices() {
        let p = PartitionedBpuPolicy::new(16_384, 4);
        assert_eq!(p.partition_size(), 4_096);
        let a = low_bits(p, 0, 0x40_006d, 16_384);
        let b = low_bits(p, 1, 0x40_006d, 16_384);
        assert_ne!(a, b);
        assert!(a < 4_096);
        assert!((4_096..8_192).contains(&b));
    }

    #[test]
    fn same_context_same_low_bits_collide() {
        // Within one partition the predictor still works normally.
        let p = PartitionedBpuPolicy::new(16_384, 4);
        assert_eq!(
            low_bits(p, 2, 0x1000, 16_384),
            low_bits(p, 2, 0x1000 + 4_096, 16_384),
            "aliasing within the partition is preserved"
        );
    }

    #[test]
    fn context_wraps_across_partition_count() {
        let p = PartitionedBpuPolicy::new(1_024, 2);
        assert_eq!(low_bits(p, 0, 7, 1_024), low_bits(p, 2, 7, 1_024));
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_bad_span() {
        let _ = PartitionedBpuPolicy::new(1_000, 2);
    }
}
