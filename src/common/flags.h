// Tiny command-line flag parser for the benchmark and example binaries.
//
//   FlagParser parser;
//   int threads = 8;
//   parser.AddInt("threads", &threads, "worker thread count");
//   parser.Parse(argc, argv);   // accepts --threads=4 and --threads 4
//
// Unknown flags abort with usage text; positional arguments are collected.

#ifndef SGXBOUNDS_SRC_COMMON_FLAGS_H_
#define SGXBOUNDS_SRC_COMMON_FLAGS_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace sgxb {

class FlagParser {
 public:
  void AddInt(const std::string& name, int64_t* target, const std::string& help);
  void AddUint(const std::string& name, uint64_t* target, const std::string& help);
  void AddDouble(const std::string& name, double* target, const std::string& help);
  void AddBool(const std::string& name, bool* target, const std::string& help);
  void AddString(const std::string& name, std::string* target, const std::string& help);

  // Enum-valued string flag: the value must be one of `choices`; anything
  // else is a hard startup error listing the valid spellings.
  void AddChoice(const std::string& name, std::string* target,
                 std::vector<std::string> choices, const std::string& help);

  // Custom-parsed flag: `parse` receives the raw value and returns false to
  // reject it (same error path as a malformed int). `default_display` is
  // shown in --help. When `choices` is non-empty the rejection error lists
  // them (the parser itself still decides validity).
  void AddCallback(const std::string& name, std::function<bool(const std::string&)> parse,
                   const std::string& help, const std::string& default_display,
                   std::vector<std::string> choices = {});

  // Returns positional (non-flag) arguments. Exits on --help or parse errors.
  std::vector<std::string> Parse(int argc, char** argv);

  std::string Usage(const std::string& program) const;

 private:
  enum class Kind { kInt, kUint, kDouble, kBool, kString, kChoice, kCallback };
  struct Flag {
    std::string name;
    Kind kind;
    void* target;
    std::string help;
    std::string default_value;
    std::function<bool(const std::string&)> parse;
    std::vector<std::string> choices;
  };

  const Flag* Find(const std::string& name) const;
  static bool SetValue(const Flag& flag, const std::string& value);

  std::vector<Flag> flags_;
};

// Parses an unsigned integer that is all number: it starts with a digit (no
// sign, no whitespace), ends at the last character and fits 64 bits. Base 0
// is the unsigned flags' rule (0x... hex, 0... octal, else decimal); base 10
// is decimal only. Returns false on anything else, leaving *out unchanged.
bool ParseUnsigned(const std::string& text, uint64_t* out, int base = 0);

// `text` without its leading and trailing spaces and tabs.
std::string Trimmed(const std::string& text);

// Parses a comma-separated list of unsigned integers for --`flag` (fig08's
// --epc_mibs, fig15's --shards, fig16's --fault_rates, ...). Each item
// follows FlagParser's unsigned rules (all number, no sign, no overflow) and
// must lie in [min, max]; an empty item or an empty list is an error. On
// error prints a message naming the flag and exits with status 2.
std::vector<uint64_t> ParseU64List(const std::string& csv, const std::string& flag,
                                   uint64_t min, uint64_t max);

}  // namespace sgxb

#endif  // SGXBOUNDS_SRC_COMMON_FLAGS_H_
