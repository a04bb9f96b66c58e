#include "src/relational/value.h"

#include "src/util/string_util.h"

namespace p2pdb::rel {

bool Value::operator==(const Value& other) const {
  if (kind_ != other.kind_) return false;
  return kind_ == ValueKind::kString ? str_ == other.str_ : int_ == other.int_;
}

bool Value::operator<(const Value& other) const {
  if (kind_ != other.kind_) return kind_ < other.kind_;
  return kind_ == ValueKind::kString ? str_ < other.str_ : int_ < other.int_;
}

size_t Value::Hash() const {
  size_t h = static_cast<size_t>(kind_) * 0x9e3779b97f4a7c15ULL;
  if (kind_ == ValueKind::kString) {
    h ^= std::hash<std::string>()(str_);
  } else {
    h ^= std::hash<int64_t>()(int_) * 0xbf58476d1ce4e5b9ULL;
  }
  return h;
}

std::string Value::ToString() const {
  switch (kind_) {
    case ValueKind::kInt:
      return std::to_string(int_);
    case ValueKind::kString:
      return "\"" + str_ + "\"";
    case ValueKind::kNull:
      return StrFormat("_:%u.%u", NullFactory::NodeOf(null_id()),
                       NullFactory::SeqOf(null_id()) & 0xffffffu);
  }
  return "?";
}

Value NullFactory::Fresh(uint32_t base_depth) {
  uint32_t depth = base_depth + 1;
  if (depth > 255) depth = 255;
  uint32_t seq = (next_seq_++ & 0xffffffu) | (depth << 24);
  uint64_t id = (static_cast<uint64_t>(node_id_) << 32) | seq;
  return Value::Null(id);
}

}  // namespace p2pdb::rel
