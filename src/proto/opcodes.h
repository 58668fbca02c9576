// The request table: the 37 protocol requests of CRL 93/8 Table 1, plus
// this reproduction's extensions GetServerStats (38), GetTrace (39) and
// ResyncTime (40).
//
// AF_REQUESTS(X) expands X(value, Name, Body) once per request, in opcode
// order. The Opcode enum and OpcodeName derive from it here; asniff's
// decoder and the tests iterate it with the body column, whose structs
// (proto/requests.h) declare their wire fields. A wire value is never
// reused: a new request is one more row at the end.
#ifndef AF_PROTO_OPCODES_H_
#define AF_PROTO_OPCODES_H_

#include <cstdint>

// clang-format off
#define AF_REQUESTS(X)                                                 \
  /* Audio and events */                                               \
  X(1, SelectEvents, SelectEventsReq)                                  \
  X(2, CreateAC, CreateACReq)                                          \
  X(3, ChangeACAttributes, ChangeACAttributesReq)                      \
  X(4, FreeAC, FreeACReq)                                              \
  X(5, PlaySamples, PlaySamplesReq)                                    \
  X(6, RecordSamples, RecordSamplesReq)                                \
  X(7, GetTime, GetTimeReq)                                            \
  /* Telephony */                                                      \
  X(8, QueryPhone, QueryPhoneReq)                                      \
  X(9, EnablePassThrough, PassThroughReq)                              \
  X(10, DisablePassThrough, PassThroughReq)                            \
  X(11, HookSwitch, HookSwitchReq)                                     \
  X(12, FlashHook, FlashHookReq)                                       \
  X(13, EnableGainControl, GainControlReq)    /* not for general use */ \
  X(14, DisableGainControl, GainControlReq)   /* not for general use */ \
  X(15, DialPhone, DialPhoneReq)              /* obsolete */           \
  /* I/O control */                                                    \
  X(16, SetInputGain, SetGainReq)                                      \
  X(17, SetOutputGain, SetGainReq)                                     \
  X(18, QueryInputGain, QueryGainReq)                                  \
  X(19, QueryOutputGain, QueryGainReq)                                 \
  X(20, EnableInput, IOEnableReq)                                      \
  X(21, EnableOutput, IOEnableReq)                                     \
  X(22, DisableInput, IOEnableReq)                                     \
  X(23, DisableOutput, IOEnableReq)                                    \
  /* Access control */                                                 \
  X(24, SetAccessControl, SetAccessControlReq)                         \
  X(25, ChangeHosts, ChangeHostsReq)                                   \
  X(26, ListHosts, EmptyReq)                                           \
  /* Atoms and properties */                                           \
  X(27, InternAtom, InternAtomReq)                                     \
  X(28, GetAtomName, GetAtomNameReq)                                   \
  X(29, ChangeProperty, ChangePropertyReq)                             \
  X(30, DeleteProperty, DeletePropertyReq)                             \
  X(31, GetProperty, GetPropertyReq)                                   \
  X(32, ListProperties, ListPropertiesReq)                             \
  /* Housekeeping */                                                   \
  X(33, NoOperation, EmptyReq)                                         \
  X(34, SyncConnection, EmptyReq)                                      \
  X(35, QueryExtension, QueryExtensionReq)    /* not yet implemented */ \
  X(36, ListExtensions, EmptyReq)             /* not yet implemented */ \
  X(37, KillClient, KillClientReq)            /* not yet implemented */ \
  /* Extensions beyond Table 1 */                                      \
  X(38, GetServerStats, EmptyReq)   /* versioned server metrics block */ \
  X(39, GetTrace, GetTraceReq)      /* drain the server's trace ring */ \
  X(40, ResyncTime, ResyncTimeReq)  /* re-anchor after a failover */
// clang-format on

namespace af {

enum class Opcode : uint8_t {
#define AF_OPCODE_ENUMERATOR(value, name, body) k##name = value,
  AF_REQUESTS(AF_OPCODE_ENUMERATOR)
#undef AF_OPCODE_ENUMERATOR
};

constexpr uint8_t kMinOpcode = 1;
constexpr uint8_t kMaxOpcode = 40;

// Every value lies in [kMinOpcode, kMaxOpcode] and the table has one row
// per value; OpcodeName's switch rejects a repeated value at compile time.
#define AF_OPCODE_IN_RANGE(value, name, body) &&(value >= kMinOpcode && value <= kMaxOpcode)
#define AF_OPCODE_ROW(value, name, body) +1
static_assert(true AF_REQUESTS(AF_OPCODE_IN_RANGE), "opcode outside [kMinOpcode, kMaxOpcode]");
static_assert(0 AF_REQUESTS(AF_OPCODE_ROW) == kMaxOpcode - kMinOpcode + 1,
              "AF_REQUESTS must have one row per opcode");
#undef AF_OPCODE_IN_RANGE
#undef AF_OPCODE_ROW

constexpr const char* OpcodeName(Opcode op) {
  switch (op) {
#define AF_OPCODE_NAME(value, name, body) \
  case Opcode::k##name:                   \
    return #name;
    AF_REQUESTS(AF_OPCODE_NAME)
#undef AF_OPCODE_NAME
  }
  return "Unknown";
}

}  // namespace af

#endif  // AF_PROTO_OPCODES_H_
