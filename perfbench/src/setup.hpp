/**
 * @file
 * Workloads and their set-up: every input is generated here from the
 * workload seed, so the program under test sees only the files the
 * set-up writes — a TSH capture (the input of `fcctool compress`) and
 * a directory of indexed archives sealed as `fccd` seals them (what
 * `fccserve` serves).
 */

#ifndef PERFBENCH_SETUP_HPP
#define PERFBENCH_SETUP_HPP

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "query/catalog.hpp"

namespace perfbench {

/** A named workload: which traffic to generate and how the run's
 *  measured time is split between the two user paths. */
struct Workload
{
    std::string name;
    /** Share of --seconds given to the compress/decompress rounds;
     *  the query closed loop gets the rest. */
    double codecShare = 0.5;
};

/** @throws fcc::util::Error on an unknown name. */
Workload findWorkload(const std::string &name);

/** Timings of one set-up (seconds). */
struct SetupTimes
{
    double generate = 0.0;    ///< synthesize the capture, write TSH
    double compress = 0.0;    ///< seal the catalog's archives
    double catalogOpen = 0.0; ///< ArchiveCatalog over them
    double total() const { return generate + compress + catalogOpen; }
};

/** Everything a set-up leaves for the measured phases. */
struct Inputs
{
    std::string tshPath;      ///< the generated capture
    uint64_t packets = 0;     ///< packets in it
    uint64_t tshBytes = 0;    ///< its size
    std::string catalogDir;   ///< the sealed archives
    /** The capture's servers — addresses that receive a
     *  connection-opening SYN — most connections first. */
    std::vector<uint32_t> servers;
    uint64_t firstUs = 0;     ///< first connection-opening SYN (µs)
    uint64_t lastUs = 0;      ///< last one
    std::unique_ptr<fcc::query::ArchiveCatalog> catalog;
};

/** Archives the query catalog is sealed into. */
constexpr int catalogArchives = 8;
/** Time-seq records per chunk of the catalog's archives. */
constexpr uint32_t catalogChunkRecords = 512;

/** Open the catalog in @p dir as fccserve serves it (one decode
 *  thread per request). */
std::unique_ptr<fcc::query::ArchiveCatalog>
openCatalog(const std::string &dir);

/**
 * Generate the workload's capture from @p seed (sized by @p scale;
 * 1 is the benchmark's size), write it as TSH under @p workDir, seal
 * it into catalogArchives indexed FCC3 archives with one
 * template-carrying CompressSession, and open the catalog.
 */
Inputs setUp(const Workload &workload, uint64_t seed, double scale,
             const std::string &workDir, SetupTimes &times);

} // namespace perfbench

#endif // PERFBENCH_SETUP_HPP
