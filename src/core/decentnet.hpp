// decentnet — umbrella header: the public API of the library.
//
// A deterministic discrete-event simulation framework reproducing the
// systems analysis of "Please, do not decentralize the Internet with
// (permissionless) blockchains!" (Garcia Lopez, Montresor, Datta —
// ICDCS 2019). See README.md for the architecture overview and DESIGN.md
// for the experiment index.
#pragma once

// Simulation kernel.
#include "sim/metrics.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"
#include "sim/stats.hpp"
#include "sim/table.hpp"
#include "sim/time.hpp"

// Cryptographic substrate.
#include "crypto/buffer.hpp"
#include "crypto/hash.hpp"
#include "crypto/keys.hpp"
#include "crypto/merkle.hpp"

// Simulated network.
#include "net/churn.hpp"
#include "net/latency.hpp"
#include "net/message.hpp"
#include "net/network.hpp"
#include "net/node_id.hpp"
#include "net/topology.hpp"

// P2P overlays.
#include "overlay/chord.hpp"
#include "overlay/flood.hpp"
#include "overlay/gossip.hpp"
#include "overlay/kademlia.hpp"
#include "overlay/onehop.hpp"

// File-sharing workloads and attacks.
#include "p2p/bittorrent.hpp"
#include "p2p/sybil.hpp"
#include "p2p/workload.hpp"

// Permissionless blockchain.
#include "chain/attacks.hpp"
#include "chain/blocktree.hpp"
#include "chain/channels.hpp"
#include "chain/economics.hpp"
#include "chain/ledger.hpp"
#include "chain/light.hpp"
#include "chain/mempool.hpp"
#include "chain/miner.hpp"
#include "chain/node.hpp"
#include "chain/params.hpp"
#include "chain/pos.hpp"
#include "chain/types.hpp"
#include "chain/wallet.hpp"

// Byzantine / crash fault tolerant consensus.
#include "bft/pbft.hpp"
#include "bft/raft.hpp"
#include "bft/rsm.hpp"

// Permissioned (Fabric-style) blockchain.
#include "fabric/channel.hpp"
#include "fabric/chaincode.hpp"
#include "fabric/contracts.hpp"
#include "fabric/msp.hpp"

// Edge-centric computing.
#include "edge/federation.hpp"

// Analysis toolkit.
#include "core/scenarios.hpp"
#include "core/trilemma.hpp"
