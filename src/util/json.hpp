#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "util/result.hpp"

namespace onelab::util {

/// Generic JSON document value: the DOM the obsq query tool (and any
/// other consumer of exported telemetry) walks. Object keys preserve
/// insertion order so re-serialisation is deterministic and diffs of
/// two exports line up field by field.
class JsonValue {
  public:
    enum class Kind : std::uint8_t { null, boolean, number, string, array, object };

    JsonValue() = default;
    static JsonValue makeNull() { return JsonValue{}; }
    static JsonValue makeBool(bool b);
    static JsonValue makeNumber(double n);
    static JsonValue makeString(std::string s);
    static JsonValue makeArray();
    static JsonValue makeObject();

    [[nodiscard]] Kind kind() const noexcept { return kind_; }
    [[nodiscard]] bool isNull() const noexcept { return kind_ == Kind::null; }
    [[nodiscard]] bool isBool() const noexcept { return kind_ == Kind::boolean; }
    [[nodiscard]] bool isNumber() const noexcept { return kind_ == Kind::number; }
    [[nodiscard]] bool isString() const noexcept { return kind_ == Kind::string; }
    [[nodiscard]] bool isArray() const noexcept { return kind_ == Kind::array; }
    [[nodiscard]] bool isObject() const noexcept { return kind_ == Kind::object; }

    [[nodiscard]] bool boolean() const noexcept { return boolean_; }
    [[nodiscard]] double number() const noexcept { return number_; }
    [[nodiscard]] const std::string& string() const noexcept { return string_; }
    [[nodiscard]] const std::vector<JsonValue>& array() const noexcept { return array_; }
    [[nodiscard]] std::vector<JsonValue>& array() noexcept { return array_; }
    /// Object members in document order.
    [[nodiscard]] const std::vector<std::pair<std::string, JsonValue>>& members()
        const noexcept {
        return members_;
    }

    /// Object lookup; returns nullptr when absent or not an object.
    [[nodiscard]] const JsonValue* find(const std::string& key) const noexcept;
    /// Convenience getters with defaults for absent/mistyped members.
    [[nodiscard]] double numberOr(const std::string& key, double fallback) const noexcept;
    [[nodiscard]] std::string stringOr(const std::string& key,
                                       const std::string& fallback) const;

    void append(JsonValue value);            ///< array only
    void set(std::string key, JsonValue value);  ///< object only (replaces)

    /// Compact deterministic serialisation (no whitespace, document
    /// member order, numbers via %.17g shortest-round-trip fallback).
    [[nodiscard]] std::string serialize() const;

    /// Strict parser: one JSON value, optionally padded by whitespace.
    /// Supports the full value grammar (null/true/false, numbers,
    /// strings with \uXXXX escapes, arrays, objects).
    [[nodiscard]] static Result<JsonValue> parse(const std::string& text);
    /// parse() over a whole file's contents.
    [[nodiscard]] static Result<JsonValue> parseFile(const std::string& path);

  private:
    Kind kind_ = Kind::null;
    bool boolean_ = false;
    double number_ = 0.0;
    std::string string_;
    std::vector<JsonValue> array_;
    std::vector<std::pair<std::string, JsonValue>> members_;
};

/// Write `text` JSON-escaped (with surrounding quotes) into `sink`,
/// anything with put(char) and put(std::string_view). Allocates
/// nothing itself, so a signal handler can use it with a fixed-buffer
/// sink (obs::FlightRecorder's crash dump does).
template <class Sink>
void putJsonQuoted(Sink& sink, std::string_view text) {
    static constexpr char kHex[] = "0123456789abcdef";
    sink.put('"');
    for (const char c : text) {
        switch (c) {
            case '"': sink.put("\\\""); break;
            case '\\': sink.put("\\\\"); break;
            case '\n': sink.put("\\n"); break;
            case '\r': sink.put("\\r"); break;
            case '\t': sink.put("\\t"); break;
            default:
                if (static_cast<unsigned char>(c) < 0x20) {
                    sink.put("\\u00");
                    sink.put(kHex[c >> 4]);
                    sink.put(kHex[c & 0xf]);
                } else {
                    sink.put(c);
                }
        }
    }
    sink.put('"');
}

/// The putJsonQuoted/put sink that appends to a std::string.
struct StringSink {
    std::string& out;
    void put(char c) { out += c; }
    void put(std::string_view text) { out += text; }
};

/// Append `text` JSON-escaped (with surrounding quotes) to `out`.
void appendJsonQuoted(std::string& out, std::string_view text);

/// Append a number the way every exporter in the tree prints them:
/// integral values without a decimal point, otherwise %.17g.
void appendJsonNumber(std::string& out, double value);

}  // namespace onelab::util
