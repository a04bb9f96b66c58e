// Value: a typed database constant. The paper assumes shared constants act as
// URIs across nodes; existential head variables are materialized as *labeled
// nulls* with network-unique identifiers (algorithm A6: "insert ... with new
// values for existential").
#ifndef P2PDB_RELATIONAL_VALUE_H_
#define P2PDB_RELATIONAL_VALUE_H_

#include <cstdint>
#include <functional>
#include <string>

namespace p2pdb::rel {

enum class ValueKind : uint8_t { kInt = 0, kString = 1, kNull = 2 };

/// An atomic value: 64-bit integer, string, or labeled null.
class Value {
 public:
  Value() : kind_(ValueKind::kInt), int_(0) {}

  static Value Int(int64_t v) { return Value(ValueKind::kInt, v); }
  static Value Str(std::string v) {
    return Value(ValueKind::kString, 0, std::move(v));
  }
  /// A labeled null with a network-unique identifier (see NullFactory).
  static Value Null(uint64_t id) {
    return Value(ValueKind::kNull, static_cast<int64_t>(id));
  }

  ValueKind kind() const { return kind_; }
  bool is_null() const { return kind_ == ValueKind::kNull; }

  int64_t AsInt() const { return int_; }
  const std::string& AsStr() const { return str_; }
  uint64_t null_id() const { return static_cast<uint64_t>(int_); }

  bool operator==(const Value& other) const;
  bool operator!=(const Value& other) const { return !(*this == other); }
  /// Total order: by kind, then by payload. Gives relations a deterministic
  /// iteration order regardless of insertion order.
  bool operator<(const Value& other) const;

  size_t Hash() const;

  /// Human-readable form: 42, "paper", or _:<node>.<seq> for nulls.
  std::string ToString() const;

 private:
  Value(ValueKind kind, int64_t i, std::string s = {})
      : kind_(kind), int_(i), str_(std::move(s)) {}

  ValueKind kind_;
  int64_t int_;        // integer payload, or null id
  std::string str_;
};

/// Mints fresh labeled nulls. Each factory is owned by one node; the node id is
/// packed into the high bits so that ids are unique across the whole network
/// without coordination. Tracks an "invention depth" per null: a null created
/// from a binding that already contains nulls is one level deeper than the
/// deepest of those. The depth bound is the chase-termination safeguard used by
/// the update engine for rule sets that are not weakly acyclic.
class NullFactory {
 public:
  explicit NullFactory(uint32_t node_id) : node_id_(node_id) {}

  /// Creates a fresh null whose depth is `base_depth + 1`.
  Value Fresh(uint32_t base_depth = 0);

  /// Extracts the minting node from any null id.
  static uint32_t NodeOf(uint64_t null_id) {
    return static_cast<uint32_t>(null_id >> 32);
  }
  static uint32_t SeqOf(uint64_t null_id) {
    return static_cast<uint32_t>(null_id & 0xffffffffu);
  }
  /// Depth is carried in the value itself so it survives network transfer:
  /// the top 8 bits of the sequence number encode min(depth, 255).
  static uint32_t DepthBitsOf(uint64_t null_id) {
    return (SeqOf(null_id) >> 24) & 0xffu;
  }

  /// Advances the counter so the next Fresh() mints a sequence strictly above
  /// `seq` (the low 24 bits of an existing id). Used after crash recovery:
  /// a restarted factory must not re-mint ids already in the recovered
  /// database.
  void ReserveThrough(uint32_t seq) {
    if (next_seq_ <= seq) next_seq_ = seq + 1;
  }

 private:
  uint32_t node_id_;
  uint32_t next_seq_ = 0;
};

}  // namespace p2pdb::rel

namespace std {
template <>
struct hash<p2pdb::rel::Value> {
  size_t operator()(const p2pdb::rel::Value& v) const { return v.Hash(); }
};
}  // namespace std

#endif  // P2PDB_RELATIONAL_VALUE_H_
