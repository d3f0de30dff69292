// Minimal leveled logger.
//
// Protocol code logs through LOG(level) << ...; records go to stderr.
// Logging defaults to kWarning to keep benchmark runs quiet.
#ifndef SRC_UTIL_LOG_H_
#define SRC_UTIL_LOG_H_

#include <sstream>
#include <string>

namespace bftbase {

enum class LogLevel { kDebug = 0, kInfo = 1, kWarning = 2, kError = 3, kOff = 4 };

// Global minimum level; messages below it are discarded cheaply.
void SetLogLevel(LogLevel level);
LogLevel GetLogLevel();

// Internal: writes one formatted record to stderr.
void EmitLogRecord(LogLevel level, const std::string& message);

class LogMessage {
 public:
  LogMessage(LogLevel level, const char* file, int line) : level_(level) {
    const char* slash = nullptr;
    for (const char* p = file; *p; ++p) {
      if (*p == '/') {
        slash = p;
      }
    }
    stream_ << (slash ? slash + 1 : file) << ":" << line << "] ";
  }
  ~LogMessage() { EmitLogRecord(level_, stream_.str()); }

  LogMessage(const LogMessage&) = delete;
  LogMessage& operator=(const LogMessage&) = delete;

  std::ostringstream& stream() { return stream_; }

 private:
  LogLevel level_;
  std::ostringstream stream_;
};

}  // namespace bftbase

#define BFTBASE_LOG(level)                                      \
  if (static_cast<int>(level) < static_cast<int>(::bftbase::GetLogLevel())) { \
  } else                                                        \
    ::bftbase::LogMessage(level, __FILE__, __LINE__).stream()

#define LOG_DEBUG BFTBASE_LOG(::bftbase::LogLevel::kDebug)
#define LOG_INFO BFTBASE_LOG(::bftbase::LogLevel::kInfo)
#define LOG_WARN BFTBASE_LOG(::bftbase::LogLevel::kWarning)
#define LOG_ERROR BFTBASE_LOG(::bftbase::LogLevel::kError)

#endif  // SRC_UTIL_LOG_H_
