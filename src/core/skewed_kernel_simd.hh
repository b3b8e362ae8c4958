/**
 * @file
 * Phase-split kernels for the skewed predictor family: vectorized
 * f0..f4 bank-index fill and the multi-bank prefetch + resolve pass.
 *
 * Companion to predictors/block_kernel_simd.hh (which documents the
 * phase structure and the intrinsics policy); this header adds the
 * pieces specific to core/skew.hh — the H / H^-1 bit-mixing
 * permutations lifted to four 64-bit lanes, the packed information
 * vector, and the resolve pass that applies the majority vote and
 * update policy as one transition-table lookup per conditional.
 */

#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>

#include "core/skew.hh"
#include "predictors/block_kernel_simd.hh"

namespace bpred
{

/**
 * True when the skew fill kernels can vectorize this geometry: the
 * index must fit the u32 arrays, the H permutation needs at least
 * two bits to mix, and the packed information vector's history shift
 * must match scalar packInfoVector() (which checks <= 44).
 */
constexpr bool
simdSkewGeometryOk(unsigned index_bits, unsigned history_bits)
{
    return simdIndexWidthOk(index_bits) && index_bits >= 2 &&
        history_bits <= 44;
}

#if BPRED_HAVE_AVX2

/** skewH() on four lanes; @p y pre-masked to @p n bits, n >= 2. */
[[gnu::target("avx2")]] inline __m256i
skewHAvx2(__m256i y, unsigned n)
{
    const __m128i top_shift = _mm_cvtsi32_si128(int(n - 1));
    const __m256i one = _mm256_set1_epi64x(1);
    const __m256i top = _mm256_and_si256(
        _mm256_xor_si256(_mm256_srl_epi64(y, top_shift), y), one);
    return _mm256_or_si256(_mm256_srli_epi64(y, 1),
                           _mm256_sll_epi64(top, top_shift));
}

/** skewHInverse() on four lanes; @p y pre-masked, n >= 2. */
[[gnu::target("avx2")]] inline __m256i
skewHInverseAvx2(__m256i y, unsigned n)
{
    const __m128i high_shift = _mm_cvtsi32_si128(int(n - 1));
    const __m128i next_shift = _mm_cvtsi32_si128(int(n - 2));
    const __m256i one = _mm256_set1_epi64x(1);
    const __m256i low = _mm256_and_si256(
        _mm256_xor_si256(_mm256_srl_epi64(y, high_shift),
                         _mm256_srl_epi64(y, next_shift)),
        one);
    const __m256i shifted = _mm256_and_si256(
        _mm256_slli_epi64(y, 1),
        _mm256_set1_epi64x(i64(mask(n))));
    return _mm256_or_si256(shifted, low);
}

/**
 * skewIndex(bank, packInfoVector(pc, history, history_bits), n) over
 * four lanes at a time, @p n = index_bits >= 2.
 */
[[gnu::target("avx2")]] inline void
fillSkewIndicesAvx2(unsigned bank, const u64 *pc, const u64 *history,
                    std::size_t n_records, unsigned history_bits,
                    unsigned index_bits, u32 *out)
{
    const unsigned n = index_bits;
    const __m256i low_mask = _mm256_set1_epi64x(i64(mask(n)));
    const __m256i history_mask =
        _mm256_set1_epi64x(i64(mask(history_bits)));
    const __m128i pack_shift = _mm_cvtsi32_si128(int(history_bits));
    const __m128i v2_shift = _mm_cvtsi32_si128(int(n));
    std::size_t i = 0;
    for (; i + 4 <= n_records; i += 4) {
        const __m256i address = _mm256_srli_epi64(
            _mm256_load_si256(
                reinterpret_cast<const __m256i *>(pc + i)),
            2);
        const __m256i hist = _mm256_and_si256(
            _mm256_load_si256(
                reinterpret_cast<const __m256i *>(history + i)),
            history_mask);
        const __m256i vector = _mm256_or_si256(
            _mm256_sll_epi64(address, pack_shift), hist);
        const __m256i v1 = _mm256_and_si256(vector, low_mask);
        const __m256i v2 = _mm256_and_si256(
            _mm256_srl_epi64(vector, v2_shift), low_mask);
        __m256i index;
        switch (bank) {
          case 0:
            index = _mm256_xor_si256(
                _mm256_xor_si256(skewHAvx2(v1, n),
                                 skewHInverseAvx2(v2, n)),
                v2);
            break;
          case 1:
            index = _mm256_xor_si256(
                _mm256_xor_si256(skewHAvx2(v1, n),
                                 skewHInverseAvx2(v2, n)),
                v1);
            break;
          case 2:
            index = _mm256_xor_si256(
                _mm256_xor_si256(skewHInverseAvx2(v1, n),
                                 skewHAvx2(v2, n)),
                v2);
            break;
          case 3:
            index = _mm256_xor_si256(
                _mm256_xor_si256(skewHInverseAvx2(v1, n),
                                 skewHAvx2(v2, n)),
                v1);
            break;
          case 4:
            index = _mm256_xor_si256(
                _mm256_xor_si256(skewHAvx2(v1, n), skewHAvx2(v2, n)),
                v2);
            break;
          default:
            skewIndexBankPanic();
        }
        simdStoreIndices(out + i, index);
    }
    for (; i < n_records; ++i) {
        const u64 vector =
            packInfoVector(pc[i], history[i], history_bits);
        out[i] =
            static_cast<u32>(u64(skewIndex(bank, vector, index_bits)));
    }
}

#endif // BPRED_HAVE_AVX2

/**
 * Phase 1 for one skewed bank: @p mode selects the AVX2 kernel or
 * the bit-identical scalar fallback over skewIndex().
 */
inline void
fillSkewIndices(SimdMode mode, unsigned bank, const u64 *pc,
                const u64 *history, std::size_t n_records,
                unsigned history_bits, unsigned index_bits, u32 *out)
{
#if BPRED_HAVE_AVX2
    if (mode == SimdMode::Avx2) {
        fillSkewIndicesAvx2(bank, pc, history, n_records,
                            history_bits, index_bits, out);
        return;
    }
#endif
    static_cast<void>(mode);
    for (std::size_t i = 0; i < n_records; ++i) {
        const u64 vector =
            packInfoVector(pc[i], history[i], history_bits);
        out[i] =
            static_cast<u32>(u64(skewIndex(bank, vector, index_bits)));
    }
}

#if BPRED_HAVE_AVX2

/**
 * Fused phase 1 for a whole bank group: every skewIndex() bank is an
 * xor of members of {H(v1), H^-1(v1), H(v2), H^-1(v2), v1, v2}, so
 * one pass that loads pc/history, packs the information vector, and
 * applies the four permutations feeds all banks at once instead of
 * redoing that work per bank. @p outs[bank] may be null to skip a
 * bank; @p address_out, when set, additionally stores the plain
 * addressIndex() from the already-loaded pc — e-gskew's bank 0 —
 * which makes the separate address pass free.
 */
[[gnu::target("avx2")]] inline void
fillSkewIndexGroupAvx2(const u64 *pc, const u64 *history,
                       std::size_t n_records, unsigned history_bits,
                       unsigned index_bits, unsigned num_banks,
                       u32 *const *outs, u32 *address_out)
{
    const unsigned n = index_bits;
    const __m256i low_mask = _mm256_set1_epi64x(i64(mask(n)));
    const __m256i history_mask =
        _mm256_set1_epi64x(i64(mask(history_bits)));
    const __m128i pack_shift = _mm_cvtsi32_si128(int(history_bits));
    const __m128i v2_shift = _mm_cvtsi32_si128(int(n));
    std::size_t i = 0;
    for (; i + 4 <= n_records; i += 4) {
        const __m256i address = _mm256_srli_epi64(
            _mm256_load_si256(
                reinterpret_cast<const __m256i *>(pc + i)),
            2);
        const __m256i hist = _mm256_and_si256(
            _mm256_load_si256(
                reinterpret_cast<const __m256i *>(history + i)),
            history_mask);
        const __m256i vector = _mm256_or_si256(
            _mm256_sll_epi64(address, pack_shift), hist);
        const __m256i v1 = _mm256_and_si256(vector, low_mask);
        const __m256i v2 = _mm256_and_si256(
            _mm256_srl_epi64(vector, v2_shift), low_mask);
        const __m256i h1 = skewHAvx2(v1, n);
        const __m256i hi1 = skewHInverseAvx2(v1, n);
        const __m256i h2 = skewHAvx2(v2, n);
        const __m256i hi2 = skewHInverseAvx2(v2, n);
        for (unsigned bank = 0; bank < num_banks; ++bank) {
            if (!outs[bank]) {
                continue;
            }
            __m256i index;
            switch (bank) {
              case 0:
                index = _mm256_xor_si256(_mm256_xor_si256(h1, hi2),
                                         v2);
                break;
              case 1:
                index = _mm256_xor_si256(_mm256_xor_si256(h1, hi2),
                                         v1);
                break;
              case 2:
                index = _mm256_xor_si256(_mm256_xor_si256(hi1, h2),
                                         v2);
                break;
              case 3:
                index = _mm256_xor_si256(_mm256_xor_si256(hi1, h2),
                                         v1);
                break;
              case 4:
                index = _mm256_xor_si256(_mm256_xor_si256(h1, h2),
                                         v2);
                break;
              default:
                skewIndexBankPanic();
            }
            simdStoreIndices(outs[bank] + i, index);
        }
        if (address_out) {
            simdStoreIndices(address_out + i,
                             _mm256_and_si256(address, low_mask));
        }
    }
    for (; i < n_records; ++i) {
        const u64 vector =
            packInfoVector(pc[i], history[i], history_bits);
        for (unsigned bank = 0; bank < num_banks; ++bank) {
            if (outs[bank]) {
                outs[bank][i] = static_cast<u32>(
                    u64(skewIndex(bank, vector, index_bits)));
            }
        }
        if (address_out) {
            address_out[i] = static_cast<u32>(
                u64(addressIndex(pc[i], index_bits)));
        }
    }
}

#endif // BPRED_HAVE_AVX2

/**
 * Mode dispatch for fillSkewIndexGroupAvx2(); the scalar fallback is
 * the per-record skewIndex()/addressIndex() reference, bit-identical
 * to the per-bank fills.
 */
inline void
fillSkewIndexGroup(SimdMode mode, const u64 *pc, const u64 *history,
                   std::size_t n_records, unsigned history_bits,
                   unsigned index_bits, unsigned num_banks,
                   u32 *const *outs, u32 *address_out)
{
#if BPRED_HAVE_AVX2
    if (mode == SimdMode::Avx2) {
        fillSkewIndexGroupAvx2(pc, history, n_records, history_bits,
                               index_bits, num_banks, outs,
                               address_out);
        return;
    }
#endif
    static_cast<void>(mode);
    for (std::size_t i = 0; i < n_records; ++i) {
        const u64 vector =
            packInfoVector(pc[i], history[i], history_bits);
        for (unsigned bank = 0; bank < num_banks; ++bank) {
            if (outs[bank]) {
                outs[bank][i] = static_cast<u32>(
                    u64(skewIndex(bank, vector, index_bits)));
            }
        }
        if (address_out) {
            address_out[i] = static_cast<u32>(
                u64(addressIndex(pc[i], index_bits)));
        }
    }
}

/**
 * Widest key the skewed transition table takes: 2^11 u16 entries
 * (4 KB) sit in L1 next to the counters they serve.
 */
constexpr unsigned skewTableMaxKeyBits = 11;

/**
 * True when a group of @p num_banks banks of @p counter_bits-bit
 * counters resolves through a transition table: the key, every
 * bank's counter value plus the outcome, must fit
 * skewTableMaxKeyBits. That covers 1, 3 and 5 banks at the paper's
 * (and every factory spec's) <= 2-bit counters and 3 banks at 3
 * bits; wider groups take the fused block kernel instead.
 */
constexpr bool
skewTableFits(unsigned num_banks, unsigned counter_bits)
{
    return num_banks * counter_bits + 1 <= skewTableMaxKeyBits;
}

namespace detail
{

/**
 * One conditional through the transition @p table (layout in
 * resolveSkewedBanks): pack the counters under @p counter and the
 * outcome @p taken into the key, store every bank's next value from
 * the entry, and return the entry's tail, the mispredict bit plus
 * twice the bank-write count.
 */
template <unsigned NumBanks>
[[gnu::always_inline]] inline unsigned
skewTableStep(u8 *const (&counter)[NumBanks], u8 taken,
              const u16 *table, unsigned width)
{
    unsigned key = unsigned(taken) << (NumBanks * width);
#pragma GCC unroll 8
    for (unsigned bank = 0; bank < NumBanks; ++bank) {
        key |= unsigned(*counter[bank]) << (bank * width);
    }
    BP_DCHECK(key < (2u << (NumBanks * width)),
              "skewTableStep: key outside the transition table");
    const unsigned entry = table[key];
    const unsigned value_mask = (1u << width) - 1;
#pragma GCC unroll 8
    for (unsigned bank = 0; bank < NumBanks; ++bank) {
        *counter[bank] = u8((entry >> (bank * width)) & value_mask);
    }
    return entry >> (NumBanks * width);
}

/**
 * The resolve span: one table step per record at the precomputed
 * indices (interleaved group: the stride is the bank count, a lea).
 * A nonzero @p WidthConst makes the shifts immediates and frees the
 * shift-count registers; 0 reads @p width at run time. A free
 * function with local tallies, so they stay in registers.
 */
template <unsigned NumBanks, unsigned WidthConst>
inline void
resolveSkewTableSpan(u8 *const (&base)[NumBanks],
                     u32 *const (&idx)[NumBanks],
                     const u8 *taken, std::size_t begin,
                     std::size_t end, const u16 *table,
                     unsigned width, u64 &mispredicts, u64 &writes)
{
    const unsigned w = WidthConst ? WidthConst : width;
    u64 mis = 0;
    u64 tail_sum = 0;
    for (std::size_t j = begin; j < end; ++j) {
        u8 *counter[NumBanks];
#pragma GCC unroll 8
        for (unsigned bank = 0; bank < NumBanks; ++bank) {
            counter[bank] =
                base[bank] + std::size_t(idx[bank][j]) * NumBanks;
        }
        const unsigned tail = skewTableStep(counter, taken[j], table, w);
        mis += tail & 1;
        tail_sum += tail;
    }
    mispredicts += mis;
    writes += (tail_sum - mis) >> 1;
}

} // namespace detail

/**
 * Phases 2+3 for the skewed family: resolve @p n precomputed
 * conditionals against the @p NumBanks bank views, one lookup in
 * the transition @p table each. With w the counter width, the key
 * holds bank b's counter value at bits [b*w, b*w+w) and the outcome
 * at bit NumBanks*w; the entry holds every bank's next value at the
 * same positions, the mispredict bit at NumBanks*w and the
 * bank-write count above it. The table memoises the vote and update
 * policy (SkewedPredictor builds it from its fused step's function),
 * so this pass has no policy arithmetic of its own. With
 * @p prefetch_counters (group too big for L1, see
 * simdWantsCounterPrefetch) it runs in sub-batches, prefetching the
 * next sub-batch's counter lines first. Checked builds first verify
 * each index against @p recompute(bank, j), the scalar reference,
 * and repair it in place (see block_kernel_simd.hh). The banks must
 * be one interleaved group that fits the table (skewTableFits).
 */
template <unsigned NumBanks, typename RecomputeIndex>
inline void
resolveSkewedBanks(SatCounterArray::View (&banks)[NumBanks],
                   u32 *const (&idx)[NumBanks], const u8 *taken,
                   std::size_t n, const u16 *table,
                   bool prefetch_counters, ReplayCounters &counters,
                   u64 &bank_write_count,
                   [[maybe_unused]] RecomputeIndex &&recompute)
{
    const unsigned width =
        unsigned(std::bit_width(unsigned(banks[0].max)));
    BP_DCHECK(skewTableFits(NumBanks, width),
              "resolveSkewedBanks: group too wide for the table");
    u8 *base[NumBanks];
    for (unsigned bank = 0; bank < NumBanks; ++bank) {
        BP_DCHECK(banks[bank].max == banks[0].max &&
                      banks[bank].stride == NumBanks,
                  "resolveSkewedBanks: not one interleaved group");
        base[bank] = banks[bank].values;
    }
#ifdef BPRED_CHECKED
    // Verify and repair first, so checked builds resolve through
    // the very loop release builds run.
    for (std::size_t j = 0; j < n; ++j) {
        for (unsigned bank = 0; bank < NumBanks; ++bank) {
            const u64 expected = recompute(bank, j);
            if (idx[bank][j] != expected) [[unlikely]] {
                noteIndexRepair();
                idx[bank][j] = static_cast<u32>(expected);
            }
        }
    }
#endif
    u64 mispredicts = 0;
    u64 writes = 0;
    // The paper's 1- and 2-bit counters get constant shifts (~25%
    // on this pass); wider ones read the width at run time.
    const auto span = [&](std::size_t begin, std::size_t end) {
        const auto run = [&]<unsigned WidthConst>() {
            detail::resolveSkewTableSpan<NumBanks, WidthConst>(
                base, idx, taken, begin, end, table, width,
                mispredicts, writes);
        };
        if (width == 1) {
            run.template operator()<1>();
        } else if (width == 2) {
            run.template operator()<2>();
        } else {
            run.template operator()<0>();
        }
    };
    if (prefetch_counters) {
        for (std::size_t at = 0; at < n; at += simdSubBatch) {
            const std::size_t end = std::min(n, at + simdSubBatch);
            const std::size_t prefetch_end =
                std::min(n, end + simdSubBatch);
            for (std::size_t j = end; j < prefetch_end; ++j) {
                for (unsigned bank = 0; bank < NumBanks; ++bank) {
                    __builtin_prefetch(
                        base[bank] +
                            std::size_t(idx[bank][j]) * NumBanks,
                        1);
                }
            }
            span(at, end);
        }
    } else {
        span(0, n);
    }
    counters.conditionals += n;
    counters.mispredicts += mispredicts;
    bank_write_count += writes;
}

} // namespace bpred
