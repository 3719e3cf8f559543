#include "prng/mtgp_stream.hpp"

#include <stdexcept>
#include <string>

namespace esthera::prng {

MtgpStream::MtgpStream(std::size_t groups, std::uint64_t seed, Generator generator)
    : generator_(generator), seed_(seed) {
  if (generator_ == Generator::kMtgp) {
    mt_.reserve(groups);
    SplitMix64 mix(seed);
    for (std::size_t g = 0; g < groups; ++g) {
      mt_.emplace_back(static_cast<std::uint32_t>(mix() >> 16));
    }
  } else {
    philox_streams_ = groups;
  }
}

template <typename T>
void MtgpStream::fill_impl(mcore::ThreadPool& pool, RandomBuffer<T>& buf) {
  const std::uint64_t round = round_++;
  pool.run(buf.groups, [&](std::size_t g, std::size_t /*worker*/) {
    auto normals = buf.group_normals(g);
    auto uniforms = buf.group_uniforms(g);
    auto fill_from = [&](auto& gen) {
      // Normals pairwise via Box-Muller; odd counts still consume a full
      // pair (the paper's PRNG kernel generates a fixed grid). Draw order
      // pinned per box_muller_fill's contract: first draw = angle input
      // u2, second = radius input u1 (historically GCC's right-to-left
      // argument evaluation of box_muller(uniform01(gen), uniform01(gen))).
      for (std::size_t i = 0; i + 1 < normals.size(); i += 2) {
        const T u2 = uniform01<T>(gen);
        const T u1 = uniform01<T>(gen);
        const auto [z0, z1] = box_muller(u1, u2);
        normals[i] = z0;
        normals[i + 1] = z1;
      }
      if (normals.size() % 2 == 1) {
        const T u2 = uniform01<T>(gen);
        const T u1 = uniform01<T>(gen);
        const auto [z0, z1] = box_muller(u1, u2);
        normals[normals.size() - 1] = z0;
        (void)z1;
      }
      for (auto& u : uniforms) u = uniform01<T>(gen);
    };
    if (generator_ == Generator::kMtgp) {
      fill_from(mt_[g]);
    } else {
      PhiloxStream gen(seed_, (round << 32) | static_cast<std::uint64_t>(g));
      fill_from(gen);
    }
  });
}

void MtgpStream::fill(mcore::ThreadPool& pool, RandomBuffer<float>& buf) {
  fill_impl(pool, buf);
}

void MtgpStream::fill(mcore::ThreadPool& pool, RandomBuffer<double>& buf) {
  fill_impl(pool, buf);
}

MtgpStreamState MtgpStream::save_state() const {
  MtgpStreamState s;
  s.generator = generator_;
  s.groups = group_count();
  s.round = round_;
  if (generator_ == Generator::kMtgp) {
    s.mt_words.reserve(mt_.size() * (Mt19937::kStateWords + 1));
    for (const Mt19937& gen : mt_) {
      const auto words = gen.state_words();
      s.mt_words.insert(s.mt_words.end(), words.begin(), words.end());
      s.mt_words.push_back(gen.state_index());
    }
  }
  return s;
}

void MtgpStream::restore_state(const MtgpStreamState& state) {
  if (state.generator != generator_) {
    throw std::invalid_argument(
        "MtgpStream::restore_state: generator core mismatch");
  }
  if (state.groups != group_count()) {
    throw std::invalid_argument("MtgpStream::restore_state: snapshot has " +
                                std::to_string(state.groups) +
                                " groups, stream has " +
                                std::to_string(group_count()));
  }
  constexpr std::size_t kPerGroup = Mt19937::kStateWords + 1;
  if (generator_ == Generator::kMtgp) {
    if (state.mt_words.size() != mt_.size() * kPerGroup) {
      throw std::invalid_argument(
          "MtgpStream::restore_state: snapshot word count " +
          std::to_string(state.mt_words.size()) + " does not match " +
          std::to_string(mt_.size() * kPerGroup));
    }
    for (std::size_t g = 0; g < mt_.size(); ++g) {
      const std::uint32_t* base = state.mt_words.data() + g * kPerGroup;
      mt_[g].set_state({base, Mt19937::kStateWords}, base[Mt19937::kStateWords]);
    }
  } else if (!state.mt_words.empty()) {
    throw std::invalid_argument(
        "MtgpStream::restore_state: Philox snapshot carries MT words");
  }
  round_ = state.round;
}

}  // namespace esthera::prng
