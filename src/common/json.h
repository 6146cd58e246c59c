// Minimal streaming JSON writer for machine-readable bench results.
//
// The writer manages commas and nesting; callers produce values in document
// order. Doubles that are not finite (NaN/inf from degenerate runs) are
// emitted as null so the output always parses.
//
//   JsonWriter w;
//   w.BeginObject();
//   w.Key("throughput_ops_per_ms");
//   w.Number(123.4);
//   w.EndObject();
//   std::string doc = w.Take();
#ifndef TM2C_SRC_COMMON_JSON_H_
#define TM2C_SRC_COMMON_JSON_H_

#include <cstdint>
#include <string>
#include <vector>

namespace tm2c {

class JsonWriter {
 public:
  void BeginObject();
  void EndObject();
  void BeginArray();
  void EndArray();

  void Key(const std::string& key);

  void String(const std::string& value);
  void Number(double value);
  void Number(uint64_t value);
  void Number(int value);
  void Bool(bool value);

  // Convenience for the common `"key": value` pair.
  template <typename T>
  void KV(const std::string& key, const T& value) {
    Key(key);
    Put(value);
  }

  // The serialized document; the writer is left empty.
  std::string Take();
  const std::string& str() const { return out_; }

  static std::string Escape(const std::string& s);

 private:
  void Put(const std::string& v) { String(v); }
  void Put(const char* v) { String(v); }
  void Put(double v) { Number(v); }
  void Put(uint64_t v) { Number(v); }
  void Put(int v) { Number(v); }
  void Put(bool v) { Bool(v); }

  // Writes the separator a new value needs in the current container.
  void BeforeValue();

  std::string out_;
  // One entry per open container: true once it holds at least one element.
  std::vector<bool> has_element_;
  bool pending_key_ = false;
};

}  // namespace tm2c

#endif  // TM2C_SRC_COMMON_JSON_H_
