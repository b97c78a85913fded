//===- perfbench/src/Fingerprint.h - Machine and build fingerprint -------===//

#ifndef PERFBENCH_FINGERPRINT_H
#define PERFBENCH_FINGERPRINT_H

#include <string>

namespace perfbench {

/// The machine and build a result was measured on, as one JSON object:
/// CPU model, nproc, active nn backend, global thread-pool size, build
/// type, the git sha when the checkout is a git repository, and a digest
/// of the runtime sources (which identifies the code when it is not).
std::string fingerprintJson(const std::string &RepoRoot);

} // namespace perfbench

#endif // PERFBENCH_FINGERPRINT_H
