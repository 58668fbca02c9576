// Logging in the spirit of the AudioFile server's ErrorF() / FatalError().
#ifndef AF_COMMON_LOG_H_
#define AF_COMMON_LOG_H_

#include <cstdarg>

namespace af {

enum class LogLevel { kDebug = 0, kInfo = 1, kWarning = 2, kError = 3 };

// Messages below this level are suppressed. Defaults to kWarning so a
// quiescent server is silent, matching the paper's "negligible load" goal.
void SetLogLevel(LogLevel level);
LogLevel GetLogLevel();

// Formatted message to stderr at the given level.
void Logf(LogLevel level, const char* fmt, ...) __attribute__((format(printf, 2, 3)));

// ErrorF: warning/informational output from the server (paper's name).
void ErrorF(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

// FatalError: print and abort the process (paper's name).
[[noreturn]] void FatalError(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

}  // namespace af

#endif  // AF_COMMON_LOG_H_
