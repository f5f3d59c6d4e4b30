// Pinned trial digests for the three duel protocols: Fig. 1, KSY and their
// interleaving.  A scenario row pins run_scenario_trial digests, which fold
// in both parties' costs and halts, the cap flag, the final epoch, latency,
// adversary spend and the abort flag.  So any change to a protocol's phase
// actions, halting rules, cost ledger or RNG draw order moves a literal.
//
// The scenario grid is every duel protocol against every duel adversary,
// clean and under crash churn + loss + CCA drift, at three cap settings:
// the default caps with a budget small enough that the run ends on its own,
// an explicit cap two epochs past the first, and a 2048-slot timeout.  The
// direct rows run combined with Fig. 1 and KSY caps that differ, which the
// scenario codec cannot express.
#include <array>
#include <cstdint>
#include <string>

#include <gtest/gtest.h>

#include "rcb/common/mathutil.hpp"
#include "rcb/protocols/combined.hpp"
#include "rcb/runtime/scenario.hpp"

namespace rcb {
namespace {

constexpr std::size_t kTrials = 3;
using Pins = std::array<std::uint64_t, kTrials>;

enum class Faults { kClean, kChurnLossCca };
enum class Caps { kDefault, kExtra2, kTimeout2048 };

constexpr Faults C = Faults::kClean;
constexpr Faults F = Faults::kChurnLossCca;
constexpr Caps D = Caps::kDefault;
constexpr Caps X = Caps::kExtra2;
constexpr Caps T = Caps::kTimeout2048;

struct ScenarioRow {
  const char* protocol;
  const char* adversary;
  Faults faults;
  Caps caps;
  Pins digests;
};

Scenario row_scenario(const ScenarioRow& row, std::uint64_t seed) {
  Scenario s;
  s.protocol = row.protocol;
  s.adversary = row.adversary;
  s.q = 0.9;
  s.rate = 0.3;
  s.eps = 0.05;
  s.trials = kTrials;
  s.seed = seed;
  // Small enough that a default-cap run ends when the adversary runs dry;
  // sym_random's planner draws per slot, so it gets less.
  s.budget = s.adversary == "sym_random" ? 1024 : 8192;
  if (row.caps == Caps::kExtra2) s.max_epoch_extra = 2;
  if (row.caps == Caps::kTimeout2048) s.timeout_slots = 2048;
  if (row.faults == Faults::kChurnLossCca) {
    FaultConfig& f = s.faults;
    f.seed = 77;
    f.crash_rate = 0.002;
    f.restart_rate = 0.05;
    f.loss_rate = 0.1;
    f.cca_false_busy = 0.05;
    f.cca_missed_detection = 0.05;
    f.cca_ramp_slots = 512;
  }
  return s;
}

std::string hex_pins(const Pins& got) {
  std::string out = "{";
  for (std::size_t t = 0; t < kTrials; ++t) {
    out += (t ? ", 0x" : "0x") + to_hex16(got[t]) + "ull";
  }
  return out + "}";
}

// clang-format off
constexpr ScenarioRow kScenarioRows[] = {
    {"one_to_one", "none", C, D,
     {0xbf7d8ed384cba778ull, 0x8976054593960326ull, 0xfcdaba19f02cab9eull}},
    {"one_to_one", "none", C, X,
     {0x2cd38e58e3481642ull, 0x613e4d106c1fc231ull, 0x217be5529968dc98ull}},
    {"one_to_one", "none", C, T,
     {0x3abd91d169d89e38ull, 0x8976054593960326ull, 0xe43ad12b83584cd2ull}},
    {"one_to_one", "none", F, D,
     {0xbf7d8ed384cba778ull, 0x9b390425adfd05ffull, 0x217be5529968dc98ull}},
    {"one_to_one", "none", F, X,
     {0x6894b01f3d7631d4ull, 0xd060d5e1a1c0be7dull, 0x70f5fd0e1491f14bull}},
    {"one_to_one", "none", F, T,
     {0xe43ad12b83584cd2ull, 0x06e6426619bd94ceull, 0xb85cae4b1d6f2e70ull}},
    {"one_to_one", "send_phase", C, D,
     {0x0d7eb97dbf01d9a3ull, 0xa6a6639804aa74a7ull, 0xfabde172d37edb21ull}},
    {"one_to_one", "send_phase", C, X,
     {0x116b7a31ab1d8425ull, 0xc1cee11bddf7374aull, 0x66dd6106e7d9913dull}},
    {"one_to_one", "send_phase", C, T,
     {0xbd58dd443cfd7383ull, 0xa36dd207ad7e958full, 0xc1cee11bddf7374aull}},
    {"one_to_one", "send_phase", F, D,
     {0x9455b6c126f07229ull, 0x7845ba434a848f4eull, 0xd68b02f57eb40d89ull}},
    {"one_to_one", "send_phase", F, X,
     {0x66dd6106e7d9913dull, 0xf7bf836314ee541eull, 0x2ddd203d6afb77e5ull}},
    {"one_to_one", "send_phase", F, T,
     {0xbebd8725aa961823ull, 0xa36dd207ad7e958full, 0xf063a272e56ee8c2ull}},
    {"one_to_one", "nack_phase", C, D,
     {0xa64aea488832a5a9ull, 0xf52109d92ee39ceaull, 0x3cdbfcf94639920full}},
    {"one_to_one", "nack_phase", C, X,
     {0xa35014b162d22263ull, 0xb9e79a874f9c7cd6ull, 0xb9261495fd8bec3cull}},
    {"one_to_one", "nack_phase", C, T,
     {0x8b31cbb8f44e1e07ull, 0xc8b1ca131bd13babull, 0x991849bdf32f2abeull}},
    {"one_to_one", "nack_phase", F, D,
     {0xd44674603d440ddaull, 0xd567202384c718c0ull, 0xc58b8b7da1786706ull}},
    {"one_to_one", "nack_phase", F, X,
     {0x512d3bc5b2745c09ull, 0x11d50c3e0601a696ull, 0xfcfcd1f11e2cc29full}},
    {"one_to_one", "nack_phase", F, T,
     {0x517dc355ff6bc86dull, 0x0eb71a9619729e6bull, 0x05f11040e74ec94cull}},
    {"one_to_one", "full_duel", C, D,
     {0x0a33648b293dab6bull, 0x5a7babcc82154038ull, 0xfc10d758c26f1af5ull}},
    {"one_to_one", "full_duel", C, X,
     {0x72b3581089ba0196ull, 0x657f16d31c6c95dfull, 0xe1b7650f538c4328ull}},
    {"one_to_one", "full_duel", C, T,
     {0xcc26e301d9745d7aull, 0xb5d993e332985d12ull, 0x6631cc50aa91742dull}},
    {"one_to_one", "full_duel", F, D,
     {0x163dcde1114613b0ull, 0x237014bf4ad82a1cull, 0x1a810759522dfa41ull}},
    {"one_to_one", "full_duel", F, X,
     {0x9b7c0b5833aa6299ull, 0x89826277412380a9ull, 0x55dc9c4ed7c5f578ull}},
    {"one_to_one", "full_duel", F, T,
     {0xbf1b55ceb820a34aull, 0xfa7e0aed32ff089full, 0xfb9dcb459e965cecull}},
    {"one_to_one", "both_views", C, D,
     {0x4710b0c72748e641ull, 0x1e5073f1908284baull, 0x79721f3ab56dcaadull}},
    {"one_to_one", "both_views", C, X,
     {0x1725bb588bdfa6f5ull, 0x0e71f1a7e385ece4ull, 0x06c15c6912e2f4b0ull}},
    {"one_to_one", "both_views", C, T,
     {0x5d5278a5724afbc7ull, 0x4d36cc4c25adcd7aull, 0xd4e3ff5edce95f8aull}},
    {"one_to_one", "both_views", F, D,
     {0x17241e76185a585dull, 0x8bb79c4bd6f5e155ull, 0x038ce05c02c5846full}},
    {"one_to_one", "both_views", F, X,
     {0xcca7e05e03ca93d3ull, 0xe2490715566bf139ull, 0xbf4d997e3790765eull}},
    {"one_to_one", "both_views", F, T,
     {0x1a21ff5a6aaa32c4ull, 0x0fcf06daef9abbc6ull, 0xf503afd5d82d95d7ull}},
    {"one_to_one", "sym_random", C, D,
     {0x54e257249e6f69c0ull, 0xfd834d0614f895caull, 0x94326af5f4be5518ull}},
    {"one_to_one", "sym_random", C, X,
     {0x2385d1b9e19fff2dull, 0xc8a031a7055177efull, 0xbfbc81baa9be90cdull}},
    {"one_to_one", "sym_random", C, T,
     {0xabde6ae93931e17full, 0x00ae70a9820cc33cull, 0xb66055462811c614ull}},
    {"one_to_one", "sym_random", F, D,
     {0xdf8e25342e26ea57ull, 0x00824db5e78b564aull, 0x9ad8e113974bb571ull}},
    {"one_to_one", "sym_random", F, X,
     {0x76727a59d2fc185full, 0x3e2ffc1dca28e28dull, 0xcd970753c8dcbc4dull}},
    {"one_to_one", "sym_random", F, T,
     {0xc2c6e44b7cf69f9dull, 0x4ef6be38074d33eaull, 0x5ce1d2932dfe4080ull}},
    {"one_to_one", "spoof", C, D,
     {0x677e45067a9814e3ull, 0x4fae89996a9a9ef1ull, 0x7483dd664386ca21ull}},
    {"one_to_one", "spoof", C, X,
     {0x35bc42652e64c767ull, 0x777eddcdd1d787ceull, 0x088f372d0fc62b1eull}},
    {"one_to_one", "spoof", C, T,
     {0x92eb3cc349318910ull, 0xe4f52aa1c8cd90b3ull, 0xa10d8ccce40cff16ull}},
    {"one_to_one", "spoof", F, D,
     {0x7180570a16c8bf01ull, 0xf51dbb9b7de9a5d4ull, 0xfc74dbd185e4e4c3ull}},
    {"one_to_one", "spoof", F, X,
     {0xdc9b25f76eb998acull, 0x09a031607a2397a9ull, 0x121ef3a249728978ull}},
    {"one_to_one", "spoof", F, T,
     {0x6743218ede7cac40ull, 0x52f482fc6836bb19ull, 0xf68db7ac498028dfull}},
    {"ksy", "none", C, D,
     {0x813b85cc9f369755ull, 0xf52f4022220d58dbull, 0xdf13323ef0d1664full}},
    {"ksy", "none", C, X,
     {0x3a8d9603f5da75f7ull, 0x7c6f0954b9ea2a19ull, 0x8d3b4381dd23c518ull}},
    {"ksy", "none", C, T,
     {0xf52f4022220d58dbull, 0x7c6f0954b9ea2a19ull, 0x813b85cc9f369755ull}},
    {"ksy", "none", F, D,
     {0x316cafcceabdfdcdull, 0xdf13323ef0d1664full, 0xdf13323ef0d1664full}},
    {"ksy", "none", F, X,
     {0xdf13323ef0d1664full, 0xf52f4022220d58dbull, 0xe24ee00b177d63b9ull}},
    {"ksy", "none", F, T,
     {0x24fb965065913b51ull, 0xf52f4022220d58dbull, 0xdf13323ef0d1664full}},
    {"ksy", "send_phase", C, D,
     {0x1b45ee69e39de51bull, 0xe69c86b3e8d38135ull, 0x573041a909429647ull}},
    {"ksy", "send_phase", C, X,
     {0xa6d278c981716a79ull, 0x7a099338ee0b0ed2ull, 0x096680ef19c55346ull}},
    {"ksy", "send_phase", C, T,
     {0x53c10fe91ede1fb2ull, 0xa0ebe702c4641d9aull, 0x9e161833680d4f12ull}},
    {"ksy", "send_phase", F, D,
     {0x2bb23295ab1f8421ull, 0xf5b28a97184dd967ull, 0x89b80d8c85c8bd96ull}},
    {"ksy", "send_phase", F, X,
     {0xf99670af4252e8e9ull, 0x48c0aafce30610feull, 0x5eb77579a841531eull}},
    {"ksy", "send_phase", F, T,
     {0x48f5bcb326d7333aull, 0x16c598c180bddef9ull, 0x47f5eb9656961425ull}},
    {"ksy", "nack_phase", C, D,
     {0x3a8d9603f5da75f7ull, 0x4428c8a777c9af9bull, 0x886ced9907f03559ull}},
    {"ksy", "nack_phase", C, X,
     {0x166512f34b79b9fbull, 0x24fb965065913b51ull, 0xf52f4022220d58dbull}},
    {"ksy", "nack_phase", C, T,
     {0x4853fc341e69c07bull, 0x24fb965065913b51ull, 0x1ce5fd6d92c31162ull}},
    {"ksy", "nack_phase", F, D,
     {0x316cafcceabdfdcdull, 0xdf13323ef0d1664full, 0x6ac7762c83be4e4bull}},
    {"ksy", "nack_phase", F, X,
     {0x3a8d9603f5da75f7ull, 0x3a8d9603f5da75f7ull, 0x539eb2fda4967338ull}},
    {"ksy", "nack_phase", F, T,
     {0x6ac7762c83be4e4bull, 0xdf13323ef0d1664full, 0x24fb965065913b51ull}},
    {"ksy", "full_duel", C, D,
     {0x0e80b77d82732dbdull, 0x48c0aafce30610feull, 0xc42afa31e8d49204ull}},
    {"ksy", "full_duel", C, X,
     {0x22b32e3b858d3477ull, 0x912eb9e957d56eb9ull, 0x29c6b6d72c11a0daull}},
    {"ksy", "full_duel", C, T,
     {0xda0a8dcb16d217c0ull, 0x38354efecf1f69c5ull, 0x53175805bd886caaull}},
    {"ksy", "full_duel", F, D,
     {0x333cd20ea2a6df46ull, 0x9930325fdddbf9b2ull, 0x48c0aafce30610feull}},
    {"ksy", "full_duel", F, X,
     {0x7beca73ac5c40ca0ull, 0xc224f4d4d11a0d1eull, 0x67dc28a872b33361ull}},
    {"ksy", "full_duel", F, T,
     {0x737cacdd73559fc7ull, 0x44cadb05df3cbc56ull, 0xb7c9f9f49accb3aaull}},
    {"ksy", "both_views", C, D,
     {0xcd516a0fad8d8ab6ull, 0x1d92b810e6e55586ull, 0x014273bbbef4ddf7ull}},
    {"ksy", "both_views", C, X,
     {0xbbba95d51d139314ull, 0xb720c3d65eea86adull, 0x77ae106ec44f0e4cull}},
    {"ksy", "both_views", C, T,
     {0xd7e66c3fe8748e5aull, 0xe71df040c407eb72ull, 0x8008a086dea968cbull}},
    {"ksy", "both_views", F, D,
     {0x62fa2983442e1760ull, 0x518d4aacb208e16bull, 0xe71df040c407eb72ull}},
    {"ksy", "both_views", F, X,
     {0x64e713e7329944deull, 0x44534cc7c0d7af8aull, 0xe5f0070f94f9be6cull}},
    {"ksy", "both_views", F, T,
     {0x4185f3033d1ddf8bull, 0xca7db49c546ea5d9ull, 0x0e566b33d6e74dd2ull}},
    {"ksy", "sym_random", C, D,
     {0x548659763f8c6531ull, 0xb5491ab179ad9502ull, 0x39786d616862eb55ull}},
    {"ksy", "sym_random", C, X,
     {0x265e9290d39857b1ull, 0x12bde4e75f4e8108ull, 0x64783bfa5b090eb0ull}},
    {"ksy", "sym_random", C, T,
     {0x891bd9d6eba65aa7ull, 0xb21ee33e30a347beull, 0x5b66601391704f01ull}},
    {"ksy", "sym_random", F, D,
     {0xdb6a9f4ca99e49a4ull, 0xc00f2824ab2b5bb3ull, 0xf9dafb21f3689ec4ull}},
    {"ksy", "sym_random", F, X,
     {0xff3c213bd232e1a7ull, 0xa5e1dee5120e9d50ull, 0xf0f83786cd59f54dull}},
    {"ksy", "sym_random", F, T,
     {0x3b250bf154720467ull, 0xf870473ba34394cfull, 0x0a4b9c151b6f0958ull}},
    {"ksy", "spoof", C, D,
     {0x3a8d9603f5da75f7ull, 0xf52f4022220d58dbull, 0x3a8d9603f5da75f7ull}},
    {"ksy", "spoof", C, X,
     {0x01dbe90e6015ba93ull, 0xdf13323ef0d1664full, 0xa190d56f50aef3f3ull}},
    {"ksy", "spoof", C, T,
     {0xdf13323ef0d1664full, 0xf52f4022220d58dbull, 0xdf13323ef0d1664full}},
    {"ksy", "spoof", F, D,
     {0xdf13323ef0d1664full, 0x72dcdb6ebef3a460ull, 0xdf13323ef0d1664full}},
    {"ksy", "spoof", F, X,
     {0x29c3e1f06e574d98ull, 0x6ac7762c83be4e4bull, 0x39d3b6d836dbd4d0ull}},
    {"ksy", "spoof", F, T,
     {0xa190d56f50aef3f3ull, 0x813b85cc9f369755ull, 0xdf13323ef0d1664full}},
    {"combined", "none", C, D,
     {0xaa3dc6c2c36b4bbcull, 0xceabe5d6e160ca8full, 0x23f81ad1237197a8ull}},
    {"combined", "none", C, X,
     {0xc43ffe8690fe81b0ull, 0x44e43296d40128a2ull, 0xc9b267f81b001652ull}},
    {"combined", "none", C, T,
     {0x19014092b719256aull, 0x984df39ec525e1fcull, 0x71f4f3f4933e878cull}},
    {"combined", "none", F, D,
     {0x98e564febb8bf630ull, 0xc9b267f81b001652ull, 0x7a23d59029891072ull}},
    {"combined", "none", F, X,
     {0xc6da504f4c70ef32ull, 0xed8ed4368c1f87ceull, 0x0cb06c37e99f160eull}},
    {"combined", "none", F, T,
     {0x6bd865b70ae5f858ull, 0x08a0ac54d758868aull, 0x3f60dfbdc117341aull}},
    {"combined", "send_phase", C, D,
     {0x8cf5cb42250f8484ull, 0x934c988279481fc7ull, 0x2182294a9dadee8dull}},
    {"combined", "send_phase", C, X,
     {0xd9e2627531d77935ull, 0x396ba2cd431be556ull, 0xf687023c80e83edbull}},
    {"combined", "send_phase", C, T,
     {0xb9f19d81793a6bd9ull, 0x47999a4fd8cffabfull, 0x628af801ef4fff14ull}},
    {"combined", "send_phase", F, D,
     {0xf687023c80e83edbull, 0x77125df451715765ull, 0x5b82e6f356db72f7ull}},
    {"combined", "send_phase", F, X,
     {0xfbb4bafc51a637a0ull, 0x8b339a57024e874bull, 0xa42c86fbcbe2714full}},
    {"combined", "send_phase", F, T,
     {0x993ab653f18ef517ull, 0x4002f9cfcf336669ull, 0x993ab653f18ef517ull}},
    {"combined", "nack_phase", C, D,
     {0xed1cdec95d7a8820ull, 0x282f2cd33a0a1217ull, 0xd9e2627531d77935ull}},
    {"combined", "nack_phase", C, X,
     {0x0007267b2582093dull, 0x990466f35e5f72bbull, 0x14713578ad76da0dull}},
    {"combined", "nack_phase", C, T,
     {0x990466f35e5f72bbull, 0x101385bd6079a8b7ull, 0x143e7cb1ff8f684eull}},
    {"combined", "nack_phase", F, D,
     {0x101385bd6079a8b7ull, 0xb9f19d81793a6bd9ull, 0x25fba8418ded26f0ull}},
    {"combined", "nack_phase", F, X,
     {0xed1cdec95d7a8820ull, 0x993ab653f18ef517ull, 0xb9f19d81793a6bd9ull}},
    {"combined", "nack_phase", F, T,
     {0x0007267b2582093dull, 0xd47051b8ab75fd01ull, 0x58dffcf5a326307cull}},
    {"combined", "full_duel", C, D,
     {0x2e134a0ebc9dbcafull, 0x4f53e0ff4226c58aull, 0xf2ff863f6444d3f0ull}},
    {"combined", "full_duel", C, X,
     {0xa45c818c1f166bd4ull, 0x3f60d60853c14813ull, 0x48f0c9363e13ca6full}},
    {"combined", "full_duel", C, T,
     {0x487ff1b45d497902ull, 0x90be290dddf0d7dbull, 0xb86d1ae144ea8b41ull}},
    {"combined", "full_duel", F, D,
     {0x209c830bc8a36b19ull, 0x4f53e0ff4226c58aull, 0x3f60d60853c14813ull}},
    {"combined", "full_duel", F, X,
     {0xd0eebbcf052e6d10ull, 0x2e134a0ebc9dbcafull, 0x3f60d60853c14813ull}},
    {"combined", "full_duel", F, T,
     {0xf2ff863f6444d3f0ull, 0x7c65889b0929e7aeull, 0xb5fbf416fde6cd14ull}},
    {"combined", "both_views", C, D,
     {0x92f6448c541184dcull, 0x7a0d9139c8a543bbull, 0x3312b7fb668b2312ull}},
    {"combined", "both_views", C, X,
     {0x70b6186b92a9b516ull, 0xcd9dd0e509991558ull, 0x6a2dc5979e58aa09ull}},
    {"combined", "both_views", C, T,
     {0x0b2fa66623d0b05bull, 0x5cd63fc17a8a5c4bull, 0x39e0c2afd1015648ull}},
    {"combined", "both_views", F, D,
     {0x38b3c4a4500a1cbcull, 0xf4b635a363d75bbbull, 0x147ad96fd533635full}},
    {"combined", "both_views", F, X,
     {0xaf64421899741ce3ull, 0x1fdfd1242946579aull, 0x60671a606dead980ull}},
    {"combined", "both_views", F, T,
     {0x328d08b159bd1363ull, 0x6108a7ebea0a8b48ull, 0x552a5bc6d97b392cull}},
    {"combined", "sym_random", C, D,
     {0x2704e07803c7901bull, 0x8c7a165a9a007f70ull, 0xbb45e28a4fdd4905ull}},
    {"combined", "sym_random", C, X,
     {0x8daf477c728214cbull, 0x8c0fbc2fa5df3b96ull, 0xa5f18a06eb237cbfull}},
    {"combined", "sym_random", C, T,
     {0x26427fc819584e72ull, 0xd9bb7bc9c49a3f10ull, 0x69e4afdea9e488d6ull}},
    {"combined", "sym_random", F, D,
     {0x3c346d9371f71dbeull, 0x2af90abc47c28b78ull, 0x41a017efaafa2517ull}},
    {"combined", "sym_random", F, X,
     {0x9a42af21f4ea081eull, 0x7e61b98c916f8e70ull, 0x962a12834d44396aull}},
    {"combined", "sym_random", F, T,
     {0x5c6b6acb5ea8a9f1ull, 0xc197cbf943d8ff3cull, 0xdd26794d96b2615full}},
    {"combined", "spoof", C, D,
     {0x0f9a47e2ffc71625ull, 0x0829339cac5c2b29ull, 0x978205b231ec8a87ull}},
    {"combined", "spoof", C, X,
     {0x81453e78d18254f6ull, 0x3874086cf2af8151ull, 0x001d65658cbc465aull}},
    {"combined", "spoof", C, T,
     {0xab9781f37e28c1c7ull, 0x2700982947e804c4ull, 0x717e3efaa07f5c32ull}},
    {"combined", "spoof", F, D,
     {0xcbb434a31037f80eull, 0x5ad6bc6e88846df4ull, 0xc71932f964a9a187ull}},
    {"combined", "spoof", F, X,
     {0x3df317215fa9723dull, 0xcc49abb321708eacull, 0x7b930df897aa00c6ull}},
    {"combined", "spoof", F, T,
     {0xf20fa324a4c816e6ull, 0x2d453e895eaf1ed0ull, 0x2700982947e804c4ull}},
};
// clang-format on

TEST(DuelPinTest, ScenarioTrialDigests) {
  std::uint64_t seed = 500;
  for (const ScenarioRow& row : kScenarioRows) {
    const Scenario s = row_scenario(row, seed++);
    ASSERT_EQ(validate_scenario(s), "");
    Pins got{};
    for (std::size_t t = 0; t < kTrials; ++t) {
      got[t] = run_scenario_trial(s, t).digest;
    }
    EXPECT_EQ(got, row.digests)
        << "PIN {\"" << row.protocol << "\", \"" << row.adversary << "\", "
        << (row.faults == C ? 'C' : 'F') << ", "
        << (row.caps == D ? 'D' : row.caps == X ? 'X' : 'T') << ",\n"
        << hex_pins(got) << "},";
  }
}

// run_combined with its two streams capped apart.  A cap extra of 0 keeps
// that stream's default cap.
struct DirectRow {
  const char* adversary;
  double q;  ///< blocker intensity, and sym_random's rate
  std::uint32_t fig1_extra;
  std::uint32_t ksy_extra;
  SlotCount timeout_slots;
  Pins digests;
};

std::uint64_t result_digest(const OneToOneResult& r) {
  std::uint64_t h = 0xcbf29ce484222325ull;  // FNV-1a over 64-bit words
  for (const std::uint64_t v :
       {std::uint64_t{r.delivered}, std::uint64_t{r.alice_halted},
        std::uint64_t{r.bob_halted}, std::uint64_t{r.hit_epoch_cap},
        std::uint64_t{r.aborted}, r.alice_cost, r.bob_cost, r.adversary_cost,
        r.latency, std::uint64_t{r.final_epoch}}) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 0x100000001b3ull;
    }
  }
  return h;
}

// clang-format off
constexpr DirectRow kDirectRows[] = {
    {"none", 0.9, 1, 4, 0,
     {0x3cc538848ac59417ull, 0x2f972dcd4d436ff4ull, 0x3cc538848ac59417ull}},
    {"none", 0.9, 4, 1, 0,
     {0xc681f7e50eb9611eull, 0xb629a1a68012419bull, 0x61af85b5c97d7a3eull}},
    {"none", 0.9, 0, 2, 0,
     {0xb046e0c1d62bca70ull, 0x27cb200f1f6b90d3ull, 0x3cc538848ac59417ull}},
    {"none", 0.9, 2, 0, 0,
     {0x6033a1a802146534ull, 0x5513e7fb98a93a3cull, 0x5513e7fb98a93a3cull}},
    {"none", 0.9, 3, 5, 4096,
     {0x01775edc90081dd5ull, 0x3cc538848ac59417ull, 0xa52727156cc09f78ull}},
    {"send_phase", 0.9, 1, 4, 0,
     {0x7c0df998fe318383ull, 0xd269e7b8e592efeeull, 0x7c0df998fe318383ull}},
    {"send_phase", 0.9, 4, 1, 0,
     {0x55ca64e1ff89ba68ull, 0xa73a434f3672448aull, 0xd1f5bff8078c172eull}},
    {"send_phase", 0.9, 0, 2, 0,
     {0xd7eb828415992bf9ull, 0x52c1a84c8d43afecull, 0x55ca64e1ff89ba68ull}},
    {"send_phase", 0.9, 2, 0, 0,
     {0xb285fd7f6dae6049ull, 0x5864f11d6e5efa6bull, 0xc2f73a7e87763ffeull}},
    {"send_phase", 0.9, 3, 5, 4096,
     {0x5f55f9b79137ec6aull, 0x803a3717c82b2da9ull, 0x753da868cabcf09full}},
    {"nack_phase", 0.9, 1, 4, 0,
     {0x14e76a1c25a88f45ull, 0x53736281fc4dd81cull, 0xf1a847013e3b548bull}},
    {"nack_phase", 0.9, 4, 1, 0,
     {0x53736281fc4dd81cull, 0x7bdef9985001b6c5ull, 0x55ca64e1ff89ba68ull}},
    {"nack_phase", 0.9, 0, 2, 0,
     {0x3cebb0172da48f41ull, 0xb72cd3404abf2d07ull, 0xf1a847013e3b548bull}},
    {"nack_phase", 0.9, 2, 0, 0,
     {0x6f725bdecd5d4381ull, 0xb72cd3404abf2d07ull, 0x2cc720a88ac8fe0full}},
    {"nack_phase", 0.9, 3, 5, 4096,
     {0x5864f11d6e5efa6bull, 0x2cc720a88ac8fe0full, 0xb72cd3404abf2d07ull}},
    {"full_duel", 0.9, 1, 4, 0,
     {0xc2b3f3f9d625a83dull, 0x86a0d70ca62f4cabull, 0xdbc4f2b9ce860346ull}},
    {"full_duel", 0.9, 4, 1, 0,
     {0x25f5eef60d6019a3ull, 0xcef9f29632458267ull, 0x0fc885910aed0551ull}},
    {"full_duel", 0.9, 0, 2, 0,
     {0xa88e5f821df688e8ull, 0xcc0a64bb07ee5adcull, 0x7dc9747b78692f02ull}},
    {"full_duel", 0.9, 2, 0, 0,
     {0x224d190e534e79c0ull, 0x8a822bbd30036253ull, 0x862fccbb4f68cc16ull}},
    {"full_duel", 0.9, 3, 5, 4096,
     {0x7412ccb14ceced59ull, 0x5dedfcded83c4d7aull, 0xdf366da996f73e49ull}},
    {"both_views", 0.9, 1, 4, 0,
     {0x29f0107ec117de64ull, 0x995277420c551fb1ull, 0x204c6e6f43fea208ull}},
    {"both_views", 0.9, 4, 1, 0,
     {0x390de8e712f815e1ull, 0xcdb24c2c4b1e31f3ull, 0xe1e8dbd7da4b7a50ull}},
    {"both_views", 0.9, 0, 2, 0,
     {0x5e15e3e70403e28aull, 0x26347aef3ca10af4ull, 0xce85f533076d53f7ull}},
    {"both_views", 0.9, 2, 0, 0,
     {0x999bd8dcde2d7e1full, 0xeee63ef5274febbeull, 0xc333666290f43884ull}},
    {"both_views", 0.9, 3, 5, 4096,
     {0xe30727a38931090bull, 0x53841a8aaff54c91ull, 0x3444bad2e4c22a80ull}},
    {"spoof", 0.9, 1, 4, 0,
     {0x84bf968721ea4be4ull, 0x252067581fdaa6edull, 0xb1c73e32dd2ed82eull}},
    {"spoof", 0.9, 4, 1, 0,
     {0x1d20000761c3486cull, 0x0eb811b1bd46e64cull, 0x33a8dfcba1743197ull}},
    {"spoof", 0.9, 0, 2, 0,
     {0x55b01f696b729b8aull, 0xd14ac53b65ae48cdull, 0xd66232341cb8c871ull}},
    {"spoof", 0.9, 2, 0, 0,
     {0xf4b5964a7f170a13ull, 0xc656cbcc0f0f40b7ull, 0x911cc1b1bf23978bull}},
    {"spoof", 0.9, 3, 5, 4096,
     {0x1e9a17b2e0821d8full, 0x8fd409dd16f26191ull, 0xf5b90dec2b75bf24ull}},
    {"full_duel", 0.2, 2, 2, 0,
     {0xeefcdf0a2853b01bull, 0x54ec36c95193f03aull, 0x859449fb70b8d0b7ull}},
    {"full_duel", 0.2, 3, 2, 0,
     {0x859449fb70b8d0b7ull, 0x79cb9d17cb4b43ceull, 0x5e424d8b71b521d8ull}},
    {"full_duel", 0.2, 2, 3, 0,
     {0xbd0a2fae4e155474ull, 0x24e22feba970df1bull, 0x54ec36c95193f03aull}},
    {"both_views", 0.2, 2, 2, 0,
     {0xd8446a00e812c8c8ull, 0x5ee553fe1b642120ull, 0x2e48e02366932be0ull}},
    {"both_views", 0.2, 3, 2, 0,
     {0xe90e66991d020b2cull, 0xc29cfc1bf8cbb683ull, 0xfa813cd0e68700f3ull}},
    {"both_views", 0.2, 2, 3, 0,
     {0x4e27cce54122d87cull, 0x180419ab6b1ed014ull, 0x9f04e163c16c4bb1ull}},
    {"send_phase", 0.2, 2, 2, 0,
     {0x09955e6291d9515dull, 0xd5f00a6d4ab47224ull, 0x5bdc381038709aa7ull}},
    {"send_phase", 0.2, 3, 2, 0,
     {0x351299d4d3d18813ull, 0x5bdc381038709aa7ull, 0x09955e6291d9515dull}},
    {"send_phase", 0.2, 2, 3, 0,
     {0x5bdc381038709aa7ull, 0x3cc704e6d36fd3feull, 0x47e6be933cdafef6ull}},
    {"nack_phase", 0.2, 2, 2, 0,
     {0xe2f9fc069f075c1cull, 0x32c5f3681170d3ffull, 0x3cc704e6d36fd3feull}},
    {"nack_phase", 0.2, 3, 2, 0,
     {0x7cdaa5ca40922cf0ull, 0xce7684bb454ba7d9ull, 0xb7f97f718d1fd674ull}},
    {"nack_phase", 0.2, 2, 3, 0,
     {0xd9963e67aeb6d2d1ull, 0xcf217f77e729763aull, 0xff209f72ca4bf4c6ull}},
    {"sym_random", 0.2, 2, 2, 0,
     {0x1a0b099ef74aaa2dull, 0xa4d9b563b971a18aull, 0x4b97f38c66fd1b40ull}},
    {"sym_random", 0.2, 3, 2, 0,
     {0x54b8cf6d152ae4a1ull, 0xe846999e0522b2f0ull, 0xe9e9eb04a5136a33ull}},
    {"sym_random", 0.2, 2, 3, 0,
     {0xf8bc01422b764674ull, 0x9a2683342adae0a1ull, 0x7def8d445f8f6181ull}},
    {"full_duel", 0.5, 2, 2, 0,
     {0x8ad0265131586f1eull, 0xa88110f610499736ull, 0x21627db8795fa6bdull}},
    {"full_duel", 0.5, 3, 2, 0,
     {0x6af1398f56c8c282ull, 0x21627db8795fa6bdull, 0x1e110a3e2fc6c6baull}},
    {"both_views", 0.5, 2, 2, 0,
     {0xe6811a35db8450a8ull, 0xfc87c443160d6305ull, 0xd1a01ac2c447ba7eull}},
    {"both_views", 0.5, 3, 2, 0,
     {0xa34789ed4400bb54ull, 0x7e1f2ba4f9894547ull, 0xc97c97ed72f85595ull}},
};
// clang-format on

TEST(DuelPinTest, CombinedWithUnequalStreamCaps) {
  std::uint64_t seed = 900;
  for (const DirectRow& row : kDirectRows) {
    Scenario s;
    s.protocol = "combined";
    s.adversary = row.adversary;
    s.q = s.rate = row.q;
    s.budget = 1u << 16;
    CombinedParams params;
    params.fig1 = OneToOneParams::sim(0.05);
    if (row.fig1_extra > 0) {
      params.fig1.max_epoch = params.fig1.first_epoch() + row.fig1_extra;
    }
    if (row.ksy_extra > 0) {
      params.ksy.max_epoch = params.ksy.first_epoch + row.ksy_extra;
    }
    params.timeout_slots = row.timeout_slots;
    Pins got{};
    for (std::size_t t = 0; t < kTrials; ++t) {
      auto adv = make_duel_adversary(s);
      Rng rng = Rng::stream(seed, t);
      got[t] = result_digest(run_combined(params, *adv, rng));
    }
    ++seed;
    EXPECT_EQ(got, row.digests)
        << "PIN {\"" << row.adversary << "\", " << row.q << ", "
        << row.fig1_extra << ", "
        << row.ksy_extra << ", " << row.timeout_slots << ",\n"
        << hex_pins(got) << "},";
  }
}

}  // namespace
}  // namespace rcb
