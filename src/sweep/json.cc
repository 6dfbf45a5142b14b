#include "json.hh"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "sim/logging.hh"

namespace scmp::sweep
{

Json
Json::null()
{
    return Json();
}

Json
Json::boolean(bool v)
{
    Json j;
    j._type = Type::Bool;
    j._bool = v;
    return j;
}

Json
Json::unsignedInt(std::uint64_t v)
{
    Json j;
    j._type = Type::Unsigned;
    j._uint = v;
    return j;
}

Json
Json::number(double v)
{
    Json j;
    j._type = Type::Number;
    j._number = v;
    return j;
}

Json
Json::string(std::string v)
{
    Json j;
    j._type = Type::String;
    j._string = std::move(v);
    return j;
}

Json
Json::array()
{
    Json j;
    j._type = Type::Array;
    return j;
}

Json
Json::object()
{
    Json j;
    j._type = Type::Object;
    return j;
}

bool
Json::asBool() const
{
    panic_if(_type != Type::Bool, "JSON value is not a boolean");
    return _bool;
}

std::uint64_t
Json::asU64() const
{
    if (_type == Type::Unsigned)
        return _uint;
    if (_type == Type::Number && _number >= 0 &&
        _number == std::floor(_number)) {
        return (std::uint64_t)_number;
    }
    panic("JSON value is not an unsigned integer");
}

double
Json::asDouble() const
{
    if (_type == Type::Unsigned)
        return (double)_uint;
    panic_if(_type != Type::Number, "JSON value is not a number");
    return _number;
}

const std::string &
Json::asString() const
{
    panic_if(_type != Type::String, "JSON value is not a string");
    return _string;
}

const std::vector<Json> &
Json::asArray() const
{
    panic_if(_type != Type::Array, "JSON value is not an array");
    return _array;
}

const Json *
Json::find(const std::string &key) const
{
    if (_type != Type::Object)
        return nullptr;
    auto it = _object.find(key);
    return it == _object.end() ? nullptr : &it->second;
}

void
Json::set(const std::string &key, Json value)
{
    panic_if(_type != Type::Object, "set() on a non-object");
    _object[key] = std::move(value);
}

void
Json::push(Json value)
{
    panic_if(_type != Type::Array, "push() on a non-array");
    _array.push_back(std::move(value));
}

std::string
jsonQuote(const std::string &text)
{
    std::string out;
    out.reserve(text.size() + 2);
    out.push_back('"');
    for (char c : text) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if ((unsigned char)c < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out.push_back(c);
            }
        }
    }
    out.push_back('"');
    return out;
}

std::string
jsonNumber(double value)
{
    if (!std::isfinite(value))
        return "null";
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    return buf;
}

std::string
Json::dump() const
{
    switch (_type) {
      case Type::Null:
        return "null";
      case Type::Bool:
        return _bool ? "true" : "false";
      case Type::Unsigned:
        return std::to_string(_uint);
      case Type::Number:
        return jsonNumber(_number);
      case Type::String:
        return jsonQuote(_string);
      case Type::Array: {
        std::string out = "[";
        bool first = true;
        for (const auto &v : _array) {
            if (!first)
                out.push_back(',');
            first = false;
            out += v.dump();
        }
        out.push_back(']');
        return out;
      }
      case Type::Object: {
        std::string out = "{";
        bool first = true;
        for (const auto &[key, v] : _object) {
            if (!first)
                out.push_back(',');
            first = false;
            out += jsonQuote(key);
            out.push_back(':');
            out += v.dump();
        }
        out.push_back('}');
        return out;
      }
    }
    return "null";
}

namespace
{

/** Recursive-descent parser over one in-memory document. */
class Parser
{
  public:
    Parser(const std::string &text) : _text(text) {}

    bool
    parseDocument(Json &out, std::string *error)
    {
        if (!parseValue(out, error))
            return false;
        skipSpace();
        if (_pos != _text.size()) {
            fail(error, "trailing characters after JSON value");
            return false;
        }
        return true;
    }

  private:
    void
    skipSpace()
    {
        while (_pos < _text.size() &&
               std::isspace((unsigned char)_text[_pos])) {
            ++_pos;
        }
    }

    bool
    literal(const char *word)
    {
        std::size_t len = std::strlen(word);
        if (_text.compare(_pos, len, word) != 0)
            return false;
        _pos += len;
        return true;
    }

    void
    fail(std::string *error, const std::string &what)
    {
        if (error) {
            *error = what + " at offset " + std::to_string(_pos);
        }
    }

    bool
    parseString(std::string &out, std::string *error)
    {
        if (_pos >= _text.size() || _text[_pos] != '"') {
            fail(error, "expected string");
            return false;
        }
        ++_pos;
        out.clear();
        while (_pos < _text.size() && _text[_pos] != '"') {
            char c = _text[_pos++];
            if (c != '\\') {
                out.push_back(c);
                continue;
            }
            if (_pos >= _text.size()) {
                fail(error, "dangling escape");
                return false;
            }
            char esc = _text[_pos++];
            switch (esc) {
              case '"': out.push_back('"'); break;
              case '\\': out.push_back('\\'); break;
              case '/': out.push_back('/'); break;
              case 'n': out.push_back('\n'); break;
              case 'r': out.push_back('\r'); break;
              case 't': out.push_back('\t'); break;
              case 'b': out.push_back('\b'); break;
              case 'f': out.push_back('\f'); break;
              case 'u': {
                if (_pos + 4 > _text.size()) {
                    fail(error, "short \\u escape");
                    return false;
                }
                unsigned code = 0;
                auto res = std::from_chars(
                    _text.data() + _pos, _text.data() + _pos + 4,
                    code, 16);
                if (res.ptr != _text.data() + _pos + 4) {
                    fail(error, "bad \\u escape");
                    return false;
                }
                _pos += 4;
                // Store low bytes only; the store never writes
                // non-ASCII escapes, so this is round-trip safe.
                out.push_back((char)code);
                break;
              }
              default:
                fail(error, "unknown escape");
                return false;
            }
        }
        if (_pos >= _text.size()) {
            fail(error, "unterminated string");
            return false;
        }
        ++_pos;  // closing quote
        return true;
    }

    bool
    parseNumber(Json &out, std::string *error)
    {
        std::size_t start = _pos;
        bool integral = true;
        if (_pos < _text.size() && _text[_pos] == '-') {
            integral = false;
            ++_pos;
        }
        while (_pos < _text.size()) {
            char c = _text[_pos];
            if (std::isdigit((unsigned char)c)) {
                ++_pos;
            } else if (c == '.' || c == 'e' || c == 'E' ||
                       c == '+' || c == '-') {
                integral = false;
                ++_pos;
            } else {
                break;
            }
        }
        if (_pos == start) {
            fail(error, "expected number");
            return false;
        }
        std::string token = _text.substr(start, _pos - start);
        if (integral) {
            std::uint64_t v = 0;
            auto res = std::from_chars(
                token.data(), token.data() + token.size(), v, 10);
            if (res.ec == std::errc() &&
                res.ptr == token.data() + token.size()) {
                out = Json::unsignedInt(v);
                return true;
            }
        }
        char *end = nullptr;
        double v = std::strtod(token.c_str(), &end);
        if (end != token.c_str() + token.size()) {
            fail(error, "malformed number");
            return false;
        }
        out = Json::number(v);
        return true;
    }

    bool
    parseValue(Json &out, std::string *error)
    {
        skipSpace();
        if (_pos >= _text.size()) {
            fail(error, "unexpected end of input");
            return false;
        }
        char c = _text[_pos];
        if (c == '{') {
            ++_pos;
            out = Json::object();
            skipSpace();
            if (_pos < _text.size() && _text[_pos] == '}') {
                ++_pos;
                return true;
            }
            for (;;) {
                skipSpace();
                std::string key;
                if (!parseString(key, error))
                    return false;
                skipSpace();
                if (_pos >= _text.size() || _text[_pos] != ':') {
                    fail(error, "expected ':'");
                    return false;
                }
                ++_pos;
                Json value;
                if (!parseValue(value, error))
                    return false;
                out.set(key, std::move(value));
                skipSpace();
                if (_pos < _text.size() && _text[_pos] == ',') {
                    ++_pos;
                    continue;
                }
                if (_pos < _text.size() && _text[_pos] == '}') {
                    ++_pos;
                    return true;
                }
                fail(error, "expected ',' or '}'");
                return false;
            }
        }
        if (c == '[') {
            ++_pos;
            out = Json::array();
            skipSpace();
            if (_pos < _text.size() && _text[_pos] == ']') {
                ++_pos;
                return true;
            }
            for (;;) {
                Json value;
                if (!parseValue(value, error))
                    return false;
                out.push(std::move(value));
                skipSpace();
                if (_pos < _text.size() && _text[_pos] == ',') {
                    ++_pos;
                    continue;
                }
                if (_pos < _text.size() && _text[_pos] == ']') {
                    ++_pos;
                    return true;
                }
                fail(error, "expected ',' or ']'");
                return false;
            }
        }
        if (c == '"') {
            std::string s;
            if (!parseString(s, error))
                return false;
            out = Json::string(std::move(s));
            return true;
        }
        if (literal("true")) {
            out = Json::boolean(true);
            return true;
        }
        if (literal("false")) {
            out = Json::boolean(false);
            return true;
        }
        if (literal("null")) {
            out = Json::null();
            return true;
        }
        return parseNumber(out, error);
    }

    const std::string &_text;
    std::size_t _pos = 0;
};

} // namespace

bool
Json::parse(const std::string &text, Json &out, std::string *error)
{
    return Parser(text).parseDocument(out, error);
}

} // namespace scmp::sweep
