// A reducer whose output depends on the order each group's values arrive
// in. The stand-alone job's DiscardingReducer emits nothing and
// SummingReducer is order-blind, so neither lets output_fingerprint see a
// change in equal-key value order; this one does.

#ifndef MRMB_TESTS_ORDER_DIGEST_H_
#define MRMB_TESTS_ORDER_DIGEST_H_

#include <cstdint>
#include <memory>
#include <string_view>

#include "io/byte_buffer.h"
#include "io/checksum.h"
#include "mapred/local_runner.h"
#include "mapred/null_formats.h"

namespace mrmb {

// Emits (key, value count || CRC32C chained over every value in arrival
// order, each value preceded by its 4-byte length), so swapping any two
// values of a group, or moving bytes from one value into the next, moves
// the job's output_fingerprint.
class OrderDigestReducer final : public Reducer {
 public:
  void Reduce(std::string_view key, ValueIterator* values,
              ReduceContext* context) override {
    uint64_t count = 0;
    uint32_t crc = kCrc32cInit;
    char length[4];
    while (values->Next()) {
      const std::string_view value = values->value();
      StoreBigEndian32(static_cast<uint32_t>(value.size()), length);
      crc = Crc32c(crc, std::string_view(length, sizeof(length)));
      crc = Crc32c(crc, value);
      ++count;
    }
    char out[12];
    StoreBigEndian64(count, out);
    StoreBigEndian32(crc, out + 8);
    context->Emit(key, std::string_view(out, sizeof(out)));
  }
};

// Runs the stand-alone job (GeneratingMapper, conf.combiner at every stage
// it is enabled for) with OrderDigestReducer as the final reducer. The
// result's output_fingerprint is then an order-sensitive digest.
inline Result<LocalJobResult> RunOrderDigestJob(const JobConf& conf) {
  LocalJobRunner runner(conf);
  NullInputFormat input;
  NullOutputFormat output;
  return runner.Run(
      &input,
      [&conf](int task_id) {
        return std::make_unique<GeneratingMapper>(conf, task_id);
      },
      [](int) { return std::make_unique<OrderDigestReducer>(); }, &output,
      /*partitioner_factory=*/nullptr, MakeBuiltinCombiner(conf.combiner));
}

}  // namespace mrmb

#endif  // MRMB_TESTS_ORDER_DIGEST_H_
