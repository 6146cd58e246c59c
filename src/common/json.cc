#include "src/common/json.h"

#include <cmath>
#include <cstdio>

namespace tm2c {

void JsonWriter::BeforeValue() {
  if (pending_key_) {
    pending_key_ = false;
    return;
  }
  if (!has_element_.empty()) {
    if (has_element_.back()) {
      out_ += ',';
    }
    has_element_.back() = true;
  }
}

void JsonWriter::BeginObject() {
  BeforeValue();
  out_ += '{';
  has_element_.push_back(false);
}

void JsonWriter::EndObject() {
  has_element_.pop_back();
  out_ += '}';
}

void JsonWriter::BeginArray() {
  BeforeValue();
  out_ += '[';
  has_element_.push_back(false);
}

void JsonWriter::EndArray() {
  has_element_.pop_back();
  out_ += ']';
}

void JsonWriter::Key(const std::string& key) {
  BeforeValue();
  out_ += '"';
  out_ += Escape(key);
  out_ += "\":";
  pending_key_ = true;
}

void JsonWriter::String(const std::string& value) {
  BeforeValue();
  out_ += '"';
  out_ += Escape(value);
  out_ += '"';
}

void JsonWriter::Number(double value) {
  BeforeValue();
  if (!std::isfinite(value)) {
    out_ += "null";
    return;
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.12g", value);
  out_ += buf;
}

void JsonWriter::Number(uint64_t value) {
  BeforeValue();
  out_ += std::to_string(value);
}

void JsonWriter::Number(int value) {
  BeforeValue();
  out_ += std::to_string(value);
}

void JsonWriter::Bool(bool value) {
  BeforeValue();
  out_ += value ? "true" : "false";
}

std::string JsonWriter::Take() {
  std::string result = std::move(out_);
  out_.clear();
  has_element_.clear();
  pending_key_ = false;
  return result;
}

std::string JsonWriter::Escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
        break;
    }
  }
  return out;
}

}  // namespace tm2c
