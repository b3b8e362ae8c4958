#include "aliasing/tagged_table.hh"

#include <cassert>

namespace bpred
{

TaggedDirectMappedTable::TaggedDirectMappedTable(unsigned index_bits)
    : tags(u64(1) << index_bits, 0),
      valid(u64(1) << index_bits, false),
      indexBits(index_bits)
{
    assert(index_bits >= 1 && index_bits <= 28);
}

void
TaggedDirectMappedTable::reset()
{
    std::fill(tags.begin(), tags.end(), 0);
    std::fill(valid.begin(), valid.end(), false);
    aliasStat.reset();
}

} // namespace bpred
