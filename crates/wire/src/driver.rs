//! The mid-exploration GA checkpoint format: everything the NSGA-II
//! driver needs to resume a run at a generation boundary in another
//! process — RNG state words, the population (genomes + objective rows +
//! rank/crowding), and the run's counters.
//!
//! The kind tag carries a layout generation: `-v2` dropped three retired
//! ledger words that used to follow the dominance counters, so a record
//! in the older layout fails with a typed kind mismatch instead of being
//! misread.
//!
//! Like every format in this crate the record is **dependency-free
//! plain data**: the GA crate's `DriverState` converts to and from
//! [`DriverStateRecord`] on the core side. Floats travel as raw
//! IEEE-754 bit patterns, so a resumed run's objective rows and RNG
//! stream are bit-identical to the interrupted run's.

use crate::binary::{Reader, WireError, Writer};
use crate::snapshot::GeometryRecord;

/// Document kind tag of a driver-state record.
const DRIVER_KIND: &str = "nsga2-driver-state-v2";

/// A serialized NSGA-II driver at a `Breed`-phase generation boundary.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct DriverStateRecord {
    /// `Nsga2Config::population`.
    pub population: u64,
    /// `Nsga2Config::generations`.
    pub generations: u64,
    /// `Nsga2Config::crossover_rate` as IEEE-754 bits.
    pub crossover_bits: u64,
    /// `Nsga2Config::mutation_rate` as IEEE-754 bits.
    pub mutation_bits: u64,
    /// `Nsga2Config::seed`.
    pub seed: u64,
    /// `Nsga2Config::intern`.
    pub intern: bool,
    /// The RNG's raw xoshiro256++ state words.
    pub rng: [u64; 4],
    /// The population's genomes, in population order.
    pub genomes: Vec<GeometryRecord>,
    /// Objective-vector width (4 for the DCIM problem).
    pub objective_width: u32,
    /// The population's objective rows, row-major, as IEEE-754 bits
    /// (`objective_width` values per genome).
    pub objective_bits: Vec<u64>,
    /// The population's non-domination ranks.
    pub rank: Vec<u64>,
    /// The population's crowding distances as IEEE-754 bits.
    pub crowding_bits: Vec<u64>,
    /// Cohorts bred so far.
    pub bred: u64,
    /// Genome evaluations requested so far.
    pub evaluations: u64,
    /// Duplicates resolved by GA interning so far.
    pub interned: u64,
    /// Dominance-kernel counters `[comparisons, word_ops, allocations]`.
    pub dominance: [u64; 3],
}

impl DriverStateRecord {
    /// Encodes the record as a standalone binary document.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::with_header();
        w.put_str(DRIVER_KIND);
        w.put_u64(self.population);
        w.put_u64(self.generations);
        w.put_u64(self.crossover_bits);
        w.put_u64(self.mutation_bits);
        w.put_u64(self.seed);
        w.put_u8(self.intern as u8);
        for word in self.rng {
            w.put_u64(word);
        }
        w.put_u64(self.genomes.len() as u64);
        for g in &self.genomes {
            w.put_u32(g.log_h);
            w.put_u32(g.log_l);
            w.put_u32(g.k);
        }
        w.put_u32(self.objective_width);
        w.put_u64(self.objective_bits.len() as u64);
        for &bits in &self.objective_bits {
            w.put_u64(bits);
        }
        w.put_u64(self.rank.len() as u64);
        for &r in &self.rank {
            w.put_u64(r);
        }
        w.put_u64(self.crowding_bits.len() as u64);
        for &bits in &self.crowding_bits {
            w.put_u64(bits);
        }
        w.put_u64(self.bred);
        w.put_u64(self.evaluations);
        w.put_u64(self.interned);
        for v in self.dominance {
            w.put_u64(v);
        }
        w.finish()
    }

    /// Decodes a record encoded by [`encode`](Self::encode).
    ///
    /// # Errors
    ///
    /// [`WireError`] on a wrong kind tag, truncation, or population
    /// vectors whose lengths disagree.
    pub fn decode(bytes: &[u8]) -> Result<DriverStateRecord, WireError> {
        let mut r = Reader::open(bytes)?;
        let kind = r.take_str()?;
        if kind != DRIVER_KIND {
            return Err(WireError::Malformed(format!(
                "expected a {DRIVER_KIND} document, found `{kind}`"
            )));
        }
        let population = r.take_u64()?;
        let generations = r.take_u64()?;
        let crossover_bits = r.take_u64()?;
        let mutation_bits = r.take_u64()?;
        let seed = r.take_u64()?;
        let intern = r.take_u8()? != 0;
        let mut rng = [0u64; 4];
        for word in &mut rng {
            *word = r.take_u64()?;
        }
        let genome_count = r.take_u64()? as usize;
        let mut genomes = Vec::with_capacity(genome_count.min(1 << 20));
        for _ in 0..genome_count {
            genomes.push(GeometryRecord {
                log_h: r.take_u32()?,
                log_l: r.take_u32()?,
                k: r.take_u32()?,
            });
        }
        let objective_width = r.take_u32()?;
        let objective_count = r.take_u64()? as usize;
        let mut objective_bits = Vec::with_capacity(objective_count.min(1 << 24));
        for _ in 0..objective_count {
            objective_bits.push(r.take_u64()?);
        }
        let rank_count = r.take_u64()? as usize;
        let mut rank = Vec::with_capacity(rank_count.min(1 << 20));
        for _ in 0..rank_count {
            rank.push(r.take_u64()?);
        }
        let crowding_count = r.take_u64()? as usize;
        let mut crowding_bits = Vec::with_capacity(crowding_count.min(1 << 20));
        for _ in 0..crowding_count {
            crowding_bits.push(r.take_u64()?);
        }
        let bred = r.take_u64()?;
        let evaluations = r.take_u64()?;
        let interned = r.take_u64()?;
        let mut dominance = [0u64; 3];
        for v in &mut dominance {
            *v = r.take_u64()?;
        }
        let record = DriverStateRecord {
            population,
            generations,
            crossover_bits,
            mutation_bits,
            seed,
            intern,
            rng,
            genomes,
            objective_width,
            objective_bits,
            rank,
            crowding_bits,
            bred,
            evaluations,
            interned,
            dominance,
        };
        let n = record.genomes.len();
        if record.rank.len() != n
            || record.crowding_bits.len() != n
            || record.objective_bits.len() != n * record.objective_width as usize
        {
            return Err(WireError::Malformed(format!(
                "population vectors disagree: {n} genomes, {} objective bits \
                 (width {}), {} ranks, {} crowdings",
                record.objective_bits.len(),
                record.objective_width,
                record.rank.len(),
                record.crowding_bits.len()
            )));
        }
        Ok(record)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> DriverStateRecord {
        DriverStateRecord {
            population: 16,
            generations: 8,
            crossover_bits: 0.9f64.to_bits(),
            mutation_bits: 0.2f64.to_bits(),
            seed: 42,
            intern: true,
            rng: [1, 2, 3, u64::MAX],
            genomes: vec![
                GeometryRecord {
                    log_h: 5,
                    log_l: 1,
                    k: 4,
                },
                GeometryRecord {
                    log_h: 7,
                    log_l: 0,
                    k: 2,
                },
            ],
            objective_width: 2,
            objective_bits: vec![
                1.5f64.to_bits(),
                f64::NEG_INFINITY.to_bits(),
                f64::NAN.to_bits(),
                (-0.0f64).to_bits(),
            ],
            rank: vec![0, 1],
            crowding_bits: vec![f64::INFINITY.to_bits(), 0.25f64.to_bits()],
            bred: 4,
            evaluations: 64,
            interned: 7,
            dominance: [123, 45, 6],
        }
    }

    #[test]
    fn records_round_trip_bitwise() {
        let record = sample();
        let decoded = DriverStateRecord::decode(&record.encode()).unwrap();
        assert_eq!(decoded, record);
    }

    #[test]
    fn wrong_kind_and_mismatched_lengths_are_rejected() {
        for kind in ["not-a-driver-state", "nsga2-driver-state"] {
            let mut w = Writer::with_header();
            w.put_str(kind);
            assert!(matches!(
                DriverStateRecord::decode(&w.finish()),
                Err(WireError::Malformed(_))
            ));
        }
        let mut torn = sample();
        torn.rank.pop();
        assert!(matches!(
            DriverStateRecord::decode(&torn.encode()),
            Err(WireError::Malformed(_))
        ));
        let bytes = sample().encode();
        assert!(matches!(
            DriverStateRecord::decode(&bytes[..bytes.len() - 3]),
            Err(WireError::Truncated { .. })
        ));
    }
}
