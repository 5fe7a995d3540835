#ifndef SENTINEL_OODB_VALUE_H_
#define SENTINEL_OODB_VALUE_H_

#include <cstdint>
#include <string>
#include <variant>

#include "common/bytes.h"
#include "common/result.h"

namespace sentinel::oodb {

/// Object identifier. 0 is invalid/null.
using Oid = std::uint64_t;
constexpr Oid kInvalidOid = 0;

enum class ValueType : std::uint8_t {
  kNull = 0,
  kBool = 1,
  kInt = 2,
  kDouble = 3,
  kString = 4,
  kOid = 5,
};

const char* ValueTypeToString(ValueType type);

/// Typed atomic value: attribute values of persistent objects and event
/// parameters. The paper restricts composite-event parameters to atomic
/// values plus the OID of the signalling object (§2.1, §3.2.2 item 2);
/// Value models exactly that domain.
class Value {
 public:
  Value() : data_(std::monostate{}) {}
  static Value Null() { return Value(); }
  static Value Bool(bool v) { return Value(std::in_place_type<bool>, v); }
  static Value Int(std::int64_t v) {
    return Value(std::in_place_type<std::int64_t>, v);
  }
  static Value Double(double v) {
    return Value(std::in_place_type<double>, v);
  }
  static Value String(std::string v) {
    return Value(std::in_place_type<std::string>, std::move(v));
  }
  static Value OfOid(Oid v) {
    return Value(std::in_place_type<OidBox>, OidBox{v});
  }

  ValueType type() const;
  bool is_null() const { return type() == ValueType::kNull; }

  /// Typed accessors; the caller must check type() first (assert otherwise).
  bool AsBool() const { return std::get<bool>(data_); }
  std::int64_t AsInt() const { return std::get<std::int64_t>(data_); }
  double AsDouble() const { return std::get<double>(data_); }
  const std::string& AsString() const { return std::get<std::string>(data_); }
  Oid AsOid() const { return std::get<OidBox>(data_).oid; }

  /// Numeric view: int and double both convert; TypeMismatch otherwise.
  Result<double> AsNumber() const;

  bool operator==(const Value& other) const { return data_ == other.data_; }

  std::string ToString() const;

  void Serialize(BytesWriter* out) const;
  static Result<Value> Deserialize(BytesReader* in);

 private:
  struct OidBox {
    Oid oid;
    bool operator==(const OidBox&) const = default;
  };
  using Data =
      std::variant<std::monostate, bool, std::int64_t, double, std::string, OidBox>;
  // Builds the alternative in place: moving a whole Data in would make
  // GCC's -Wmaybe-uninitialized (under the sanitizer flags) read the
  // string alternative of a variant that holds another one.
  template <typename T>
  Value(std::in_place_type_t<T> tag, T v) : data_(tag, std::move(v)) {}

  Data data_;
};

}  // namespace sentinel::oodb

#endif  // SENTINEL_OODB_VALUE_H_
