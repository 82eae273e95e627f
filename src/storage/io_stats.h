#ifndef LIDX_STORAGE_IO_STATS_H_
#define LIDX_STORAGE_IO_STATS_H_

#include <cstdint>

namespace lidx::storage {

// Per-query I/O accounting for the disk-resident structures. `pages_touched`
// counts buffer-pool pins issued by queries — the I/O a lookup *requests*;
// the pool's own hit/miss counters say how many of those actually reached
// the disk. The remaining fields mirror LsmStats so the disk benches can
// report the same in-run search metrics as the in-memory E6 experiment.
struct DiskIoStats {
  uint64_t pages_touched = 0;  // Buffer-pool pins from point/range queries.
  uint64_t run_probes = 0;     // Runs actually searched.
  uint64_t bloom_rejects = 0;  // Probes short-circuited by the filter.
  uint64_t search_steps = 0;   // In-page binary-search iterations.
  // Batched-read accounting (storage/async_io.h): lookups served through a
  // GetBatch group state machine, and how many of their page
  // pins were issued asynchronously (a pool miss handed to the engine
  // rather than a blocking pread). batched_lookups / async_page_reads plus
  // the engine's AsyncIoStats give the syscalls-per-lookup trajectory the
  // disk benches plot next to pages-per-lookup.
  uint64_t batched_lookups = 0;
  uint64_t async_page_reads = 0;
  // Compressed-page accounting (storage/page_codec.h): records materialized
  // from packed pages by queries, and how many of those page visits decoded
  // only a slice of the page (the ε-window partial-decode fast path) rather
  // than the whole thing. Plain pages never count here — they are read in
  // place, not decompressed.
  uint64_t records_decoded = 0;  // Records materialized from packed pages.
  uint64_t partial_decodes = 0;  // Packed-page visits that decoded a slice.
};

// Counters an AsyncReadEngine keeps over its lifetime. One engine serves
// one lookup thread, so these are plain integers (read them between
// batches, not concurrently with one). `submit_syscalls` is the number of
// kernel round-trips the engine paid — io_uring_enter calls for the
// io_uring backend, one per pread for the thread-pool fallback — which is
// the denominator that shows batched submission amortizing syscall cost:
// reads_submitted / submit_syscalls reads per syscall.
struct AsyncIoStats {
  uint64_t reads_submitted = 0;    // SubmitRead calls accepted.
  uint64_t reads_completed = 0;    // Completions handed back via Harvest.
  uint64_t reads_failed = 0;       // Completions with ok == false.
  uint64_t short_read_retries = 0; // Partial reads resubmitted for the rest.
  uint64_t eintr_retries = 0;      // EINTR/EAGAIN resubmissions.
  uint64_t submit_syscalls = 0;    // Kernel round-trips (see above).
  uint64_t wait_blocks = 0;        // Harvest calls that had to block.
  uint64_t max_inflight = 0;       // High-water mark of reads in flight.
};

}  // namespace lidx::storage

#endif  // LIDX_STORAGE_IO_STATS_H_
