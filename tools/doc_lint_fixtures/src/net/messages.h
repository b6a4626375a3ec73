// Fixture: MessageType enum for the opcode cross-check. kPing and
// kMetaListDirectory have matching rows in the fixture wire doc (must stay
// clean — kMetaListDirectory also exercises the CamelCase -> snake_case
// conversion);
// kOrphan has no row and must fire opcode-undocumented. The fixture doc
// additionally documents opcode 9, which matches no enumerator here and
// must fire opcode-ghost.
#pragma once

namespace dpfs::net {

enum class MessageType : unsigned char {
  kPing = 1,
  kMetaListDirectory = 2,
  kOrphan = 3,
};

}  // namespace dpfs::net
