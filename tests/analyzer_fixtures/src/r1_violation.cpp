// rbs-analyze-fixture-expect: R1 R1 R1 R1 R1 R1 R1 R1 R1
// Every nondeterminism source R1 knows about, in one file.
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <ctime>
#include <map>
#include <random>

struct Flow;

int bad_entropy() {
  std::random_device rd;  // R1: hardware entropy
  return static_cast<int>(rd());
}

int bad_libc() {
  return rand();  // R1: hidden global state
}

double bad_wall_clock() {
  const auto t = std::chrono::system_clock::now();  // R1: wall clock
  return std::chrono::duration<double>(t.time_since_epoch()).count();
}

long bad_wall_clock_2() {
  return std::chrono::steady_clock::now().time_since_epoch().count();  // R1
}

// R1: pointer-keyed ordered container iterates in address order.
std::map<Flow*, int> g_flow_weights;

double bad_std_engine() {
  std::mt19937_64 engine{7};                           // R1: std engine
  std::uniform_real_distribution<double> unit{0, 1};  // R1: std distribution
  return unit(engine);
}

long bad_time_call() {
  return static_cast<long>(time(nullptr));  // R1: bare C time()
}

// R1: raw picosecond literal instead of a SimTime factory.
constexpr std::int64_t kOneMillisecondPs = 1'000'000'000;
