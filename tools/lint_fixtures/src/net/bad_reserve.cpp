// Fixture: a decoder that reserves by a count read off the wire; must fire
// wire-reserve on the reserve line.
#include "net/messages.h"

namespace dpfs::net {

Result<std::vector<ReadFragment>> DecodeFragments(BinaryReader& reader) {
  DPFS_ASSIGN_OR_RETURN(const std::uint32_t count, reader.ReadU32());
  std::vector<ReadFragment> fragments;
  fragments.reserve(count);
  return fragments;
}

}  // namespace dpfs::net
