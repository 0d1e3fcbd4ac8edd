#pragma once

#include <string>

namespace bench {

/// Returns 0 when every self-test assertion holds.
int runSelftest(const std::string& expectedPath,
                const std::string& benchmarkPath,
                const std::string& workerExe);

}  // namespace bench
