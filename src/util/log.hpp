// Leveled, thread-safe logging.
//
// The simulator and the sweep pool's workers can emit copious traces; this
// logger keeps them cheap when disabled (level check before formatting) and
// serialized when enabled (a single mutex around the write).

#pragma once

#include <mutex>
#include <string>

#include "util/strfmt.hpp"

namespace hcs {

enum class LogLevel { kTrace = 0, kDebug = 1, kInfo = 2, kWarn = 3, kError = 4, kOff = 5 };

/// Process-global logger configuration.
class Log {
 public:
  static void set_level(LogLevel level);
  [[nodiscard]] static LogLevel level();
  [[nodiscard]] static bool enabled(LogLevel level);

  /// Writes one line (a level tag is prepended, '\n' appended).
  static void write(LogLevel level, const std::string& message);

  template <typename... Args>
  static void trace(const Args&... args) {
    if (enabled(LogLevel::kTrace)) write(LogLevel::kTrace, str_cat(args...));
  }
  template <typename... Args>
  static void debug(const Args&... args) {
    if (enabled(LogLevel::kDebug)) write(LogLevel::kDebug, str_cat(args...));
  }
  template <typename... Args>
  static void info(const Args&... args) {
    if (enabled(LogLevel::kInfo)) write(LogLevel::kInfo, str_cat(args...));
  }
  template <typename... Args>
  static void warn(const Args&... args) {
    if (enabled(LogLevel::kWarn)) write(LogLevel::kWarn, str_cat(args...));
  }
  template <typename... Args>
  static void error(const Args&... args) {
    if (enabled(LogLevel::kError)) write(LogLevel::kError, str_cat(args...));
  }
};

}  // namespace hcs
