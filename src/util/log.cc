#include "src/util/log.h"

#include <cstdio>

namespace bftbase {

namespace {

LogLevel g_level = LogLevel::kWarning;

const char* LevelTag(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "D";
    case LogLevel::kInfo:
      return "I";
    case LogLevel::kWarning:
      return "W";
    case LogLevel::kError:
      return "E";
    case LogLevel::kOff:
      return "?";
  }
  return "?";
}

}  // namespace

void SetLogLevel(LogLevel level) { g_level = level; }

LogLevel GetLogLevel() { return g_level; }

void EmitLogRecord(LogLevel level, const std::string& message) {
  std::fprintf(stderr, "[%s] %s\n", LevelTag(level), message.c_str());
}

}  // namespace bftbase
