// Low-level flat-array kernels of the batched decode engine.
//
// One loop per kernel, written for auto-vectorization — restrict-qualified
// pointers, no aliasing, no per-element function calls — so -O2/-O3 can
// emit SIMD without intrinsics.  All arithmetic is integer, so the kernels
// cannot perturb any result the cost-replay parity suite compares.
//
// The kernels are header-only so the watermark layer (QIM batch decoding)
// can use them without a link dependency on sscor_matching.

#pragma once

#include <cstddef>
#include <cstdint>

#include "sscor/util/time.hpp"

namespace sscor::batch::kernels {

// --- gather: out[i] = ts[idx[i]] -----------------------------------------

inline void gather_timestamps(const TimeUs* __restrict ts,
                              const std::uint32_t* __restrict idx,
                              TimeUs* __restrict out, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) out[i] = ts[idx[i]];
}

// --- signed pair differences ---------------------------------------------
// out[p] = sign[p] * (slot_ts[second[p]] - slot_ts[first[p]]), sign ∈ {±1}.

inline void pair_diffs(const TimeUs* __restrict slot_ts,
                       const std::uint32_t* __restrict first,
                       const std::uint32_t* __restrict second,
                       const std::int8_t* __restrict sign,
                       DurationUs* __restrict out, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = static_cast<DurationUs>(sign[i]) *
             (slot_ts[second[i]] - slot_ts[first[i]]);
  }
}

// --- per-bit reduction ---------------------------------------------------
// bit_diffs[b] = sum of pair_diffs[b*ppb .. (b+1)*ppb) — the unnormalised
// D value of bit b (the pair array is bit-major with a fixed pairs/bit).

inline void reduce_bits(const DurationUs* __restrict pair_diffs,
                        std::size_t bits, std::size_t pairs_per_bit,
                        DurationUs* __restrict out) {
  for (std::size_t b = 0; b < bits; ++b) {
    DurationUs sum = 0;
    for (std::size_t p = 0; p < pairs_per_bit; ++p) {
      sum += pair_diffs[b * pairs_per_bit + p];
    }
    out[b] = sum;
  }
}

// --- size quantization sweep ---------------------------------------------
// out[i] = quantize_size(sizes[i], block) = ceil(sizes[i]/block)*block —
// the same formula as traffic::quantize_size, inlined flat so the whole
// suspicious flow quantizes in one pass (the windows overlap heavily, so
// per-examination quantization recomputes each packet many times).

inline void quantize_sizes(const std::uint32_t* __restrict sizes,
                           std::uint32_t block,
                           std::uint32_t* __restrict out, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = (sizes[i] + block - 1) / block * block;
  }
}

// --- QIM cell parities ---------------------------------------------------
// out[i] = parity of round(max(ipd[i], 0) / step) — one flat sweep over
// every (schedule, pair) IPD of a hypothesis batch.

inline void qim_parities(const DurationUs* __restrict ipds, DurationUs step,
                         std::uint8_t* __restrict out, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    const DurationUs ipd = ipds[i] < 0 ? 0 : ipds[i];
    out[i] = static_cast<std::uint8_t>(((ipd + step / 2) / step) & 1);
  }
}

}  // namespace sscor::batch::kernels
