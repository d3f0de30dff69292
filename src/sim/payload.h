// The immutable message the network delivers.
//
// A send or multicast builds one Payload, and every delivery of it (each
// recipient of a multicast, each duplicate) shares it through a
// std::shared_ptr<const Payload>. Next to the wire bytes it carries a memo
// of what the first receiver's Channel::Open learned about them: the
// envelope digest and, for a kSigned envelope, the signature verdict. A memo
// inside its buffer needs no key: it lives and dies with the bytes it
// describes, so it can never serve another buffer, and an interceptor's
// private copy is a new Payload with an empty memo.
//
// The signature verdict is a function of the bytes and the sender's signing
// key alone, and signing keys never rotate, so it is the same at every
// receiver. MAC verdicts are never memoized: a MAC is checked under a
// per-receiver session key that rotates, so per-receiver MAC checks (and the
// CorruptOutgoingAuth fault hooks) behave exactly as without the memo. The
// memo skips only real SHA-256 work; Open charges the simulated CPU on every
// open (DESIGN.md §8).
#ifndef SRC_SIM_PAYLOAD_H_
#define SRC_SIM_PAYLOAD_H_

#include <optional>
#include <utility>

#include "src/crypto/digest.h"
#include "src/util/bufpool.h"
#include "src/util/bytes.h"

namespace bftbase {

struct Payload {
  struct Memo {
    std::optional<Digest> digest;         // the envelope digest
    std::optional<bool> signature_valid;  // a kSigned envelope's verdict
  };

  explicit Payload(Bytes wire) : bytes(std::move(wire)) {}
  // The storage goes back to the pool the Encoders draw from.
  ~Payload() { BufferPool::Release(std::move(bytes)); }
  Payload(const Payload&) = delete;
  Payload& operator=(const Payload&) = delete;

  Bytes bytes;
  // Filled through a shared_ptr<const Payload>: it records what `bytes`
  // already determine, so filling it does not change the message.
  mutable Memo memo;
};

}  // namespace bftbase

#endif  // SRC_SIM_PAYLOAD_H_
