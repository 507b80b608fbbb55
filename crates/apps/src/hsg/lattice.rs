//! The Heisenberg spin-glass lattice.
//!
//! Spins are unit 3-vectors on an L³ periodic lattice with quenched ±J
//! couplings; the over-relaxation move reflects each spin about its local
//! field, `s' = 2(s·h)/(h·h)·h − s`, which *exactly conserves the energy*
//! — the model's strongest end-to-end correctness invariant. The
//! checkerboard (even/odd) schedule makes same-colour updates
//! order-independent, so a distributed run must produce bit-identical
//! spins to the sequential reference.
//!
//! Couplings and initial spins are derived from deterministic hashes of
//! the *global* site coordinates, so every rank sees the same disorder
//! without storing or communicating it.

use apenet_sim::rng::SplitMix64;

/// A contiguous slab of `lz` planes of a global L³ lattice, plus one
/// ghost plane on each side.
#[derive(Debug, Clone)]
pub struct Slab {
    /// Global lattice side L.
    pub l: usize,
    /// Owned planes (global z in `z0 .. z0+lz`).
    pub lz: usize,
    /// Global z of the first owned plane.
    pub z0: usize,
    /// Disorder seed.
    pub seed: u64,
    /// Spins of `(lz + 2)` planes: local plane `p` holds global plane
    /// `z0 + p - 1` (p = 0 and p = lz+1 are ghosts).
    spins: Vec<[f32; 3]>,
}

/// A full lattice is a slab owning every plane.
pub type SpinLattice = Slab;

fn site_hash(seed: u64, x: usize, y: usize, z: usize, tag: u64) -> u64 {
    let key = (x as u64) | ((y as u64) << 16) | ((z as u64) << 32) | (tag << 48);
    let mut sm = SplitMix64::new(seed ^ key.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    sm.next_u64()
}

/// Random unit vector for a site, deterministic in (seed, coords).
fn site_spin(seed: u64, x: usize, y: usize, z: usize) -> [f32; 3] {
    // Marsaglia rejection on deterministic draws.
    let mut k = 0u64;
    loop {
        let a = site_hash(seed, x, y, z, 1 + 2 * k);
        let b = site_hash(seed, x, y, z, 2 + 2 * k);
        let u = (a >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0;
        let v = (b >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0;
        let s = u * u + v * v;
        if s < 1.0 && s > 0.0 {
            let f = (1.0 - s).sqrt();
            return [
                (2.0 * u * f) as f32,
                (2.0 * v * f) as f32,
                (1.0 - 2.0 * s) as f32,
            ];
        }
        k += 1;
    }
}

/// The ±1 coupling on the bond leaving `(x,y,z)` in direction `dir`
/// (0 = +x, 1 = +y, 2 = +z), deterministic and globally consistent.
pub fn coupling(seed: u64, l: usize, x: usize, y: usize, z: usize, dir: usize) -> f32 {
    let (x, y, z) = (x % l, y % l, z % l);
    if site_hash(seed, x, y, z, 100 + dir as u64) & 1 == 0 {
        1.0
    } else {
        -1.0
    }
}

impl Slab {
    /// Build the slab owning global planes `z0 .. z0+lz` of an L³ lattice.
    pub fn new(l: usize, z0: usize, lz: usize, seed: u64) -> Self {
        assert!(lz >= 1 && lz <= l && z0 < l);
        let mut spins = vec![[0.0f32; 3]; (lz + 2) * l * l];
        for p in 0..lz + 2 {
            let zg = (z0 + l + p - 1) % l; // global plane of local p
            for y in 0..l {
                for x in 0..l {
                    spins[(p * l + y) * l + x] = site_spin(seed, x, y, zg);
                }
            }
        }
        Slab {
            l,
            lz,
            z0,
            seed,
            spins,
        }
    }

    /// A full (single-rank) lattice.
    pub fn full(l: usize, seed: u64) -> Self {
        Self::new(l, 0, l, seed)
    }

    #[inline]
    fn idx(&self, p: usize, y: usize, x: usize) -> usize {
        (p * self.l + y) * self.l + x
    }

    /// The global z of local plane `p`.
    pub fn global_z(&self, p: usize) -> usize {
        (self.z0 + self.l + p - 1) % self.l
    }

    /// Read a spin at local plane `p` (ghosts allowed).
    pub fn spin(&self, p: usize, y: usize, x: usize) -> [f32; 3] {
        self.spins[self.idx(p, y, x)]
    }

    /// Parity of a site (checkerboard colour).
    #[inline]
    pub fn color_of(&self, x: usize, y: usize, zg: usize) -> u8 {
        ((x + y + zg) & 1) as u8
    }

    #[inline]
    fn field(&self, p: usize, y: usize, x: usize) -> [f32; 3] {
        let l = self.l;
        let zg = self.global_z(p);
        let s = self.seed;
        let xm = (x + l - 1) % l;
        let xp = (x + 1) % l;
        let ym = (y + l - 1) % l;
        let yp = (y + 1) % l;
        let zgm = (zg + l - 1) % l;
        let jxp = coupling(s, l, x, y, zg, 0);
        let jxm = coupling(s, l, xm, y, zg, 0);
        let jyp = coupling(s, l, x, y, zg, 1);
        let jym = coupling(s, l, x, ym, zg, 1);
        let jzp = coupling(s, l, x, y, zg, 2);
        let jzm = coupling(s, l, x, y, zgm, 2);
        let sp = &self.spins;
        let a = sp[self.idx(p, y, xp)];
        let b = sp[self.idx(p, y, xm)];
        let c = sp[self.idx(p, yp, x)];
        let d = sp[self.idx(p, ym, x)];
        let e = sp[self.idx(p + 1, y, x)];
        let f = sp[self.idx(p - 1, y, x)];
        [
            jxp * a[0] + jxm * b[0] + jyp * c[0] + jym * d[0] + jzp * e[0] + jzm * f[0],
            jxp * a[1] + jxm * b[1] + jyp * c[1] + jym * d[1] + jzp * e[1] + jzm * f[1],
            jxp * a[2] + jxm * b[2] + jyp * c[2] + jym * d[2] + jzp * e[2] + jzm * f[2],
        ]
    }

    /// Over-relax every site of `color` in local planes `p_lo..=p_hi`.
    /// Returns the number of spins updated.
    pub fn update_color(&mut self, color: u8, p_lo: usize, p_hi: usize) -> u64 {
        assert!(p_lo >= 1 && p_hi <= self.lz);
        let l = self.l;
        let mut n = 0;
        for p in p_lo..=p_hi {
            let zg = self.global_z(p);
            for y in 0..l {
                // Sites of the colour form a stride-2 pattern per row.
                let x0 = (color as usize + y + zg) & 1;
                for x in (x0..l).step_by(2) {
                    let h = self.field(p, y, x);
                    let hh = h[0] * h[0] + h[1] * h[1] + h[2] * h[2];
                    if hh > 0.0 {
                        let i = self.idx(p, y, x);
                        let s = self.spins[i];
                        let f = 2.0 * (s[0] * h[0] + s[1] * h[1] + s[2] * h[2]) / hh;
                        self.spins[i] = [f * h[0] - s[0], f * h[1] - s[1], f * h[2] - s[2]];
                    }
                    n += 1;
                }
            }
        }
        n
    }

    /// Refresh both ghost planes from the slab's own data (single-rank
    /// periodic wrap; only valid when `lz == l`).
    pub fn wrap_ghosts(&mut self) {
        assert_eq!(self.lz, self.l, "wrap_ghosts is for full lattices");
        let l = self.l;
        for y in 0..l {
            for x in 0..l {
                let top_src = self.idx(self.lz, y, x);
                let top_dst = self.idx(0, y, x);
                self.spins[top_dst] = self.spins[top_src];
                let bot_src = self.idx(1, y, x);
                let bot_dst = self.idx(self.lz + 1, y, x);
                self.spins[bot_dst] = self.spins[bot_src];
            }
        }
    }

    /// Pack the spins of `color` in local plane `p` (row-major y, x)
    /// into little-endian f32 bytes — the halo-exchange wire format.
    pub fn pack_plane(&self, p: usize, color: u8) -> Vec<u8> {
        let l = self.l;
        let zg = self.global_z(p);
        let mut out = Vec::with_capacity(l * l / 2 * 12);
        for y in 0..l {
            let x0 = (color as usize + y + zg) & 1;
            for x in (x0..l).step_by(2) {
                let s = self.spins[self.idx(p, y, x)];
                for c in s {
                    out.extend_from_slice(&c.to_le_bytes());
                }
            }
        }
        out
    }

    /// Unpack halo bytes into a ghost plane (`p` = 0 or `lz + 1`).
    pub fn unpack_ghost(&mut self, p: usize, color: u8, data: &[u8]) {
        assert!(p == 0 || p == self.lz + 1, "only ghost planes");
        let l = self.l;
        let zg = self.global_z(p);
        let mut it = data.chunks_exact(4);
        for y in 0..l {
            let x0 = (color as usize + y + zg) & 1;
            for x in (x0..l).step_by(2) {
                let mut s = [0.0f32; 3];
                for c in &mut s {
                    let b = it.next().expect("halo payload size matches plane");
                    *c = f32::from_le_bytes([b[0], b[1], b[2], b[3]]);
                }
                let i = self.idx(p, y, x);
                self.spins[i] = s;
            }
        }
        assert!(it.next().is_none(), "halo payload exactly consumed");
    }

    /// Bytes of one halo message (one colour of one plane).
    pub fn halo_bytes(l: usize) -> u64 {
        (l * l / 2 * 12) as u64
    }

    /// Energy of the bonds this slab owns: all x/y bonds of owned planes
    /// plus the +z bond of every owned plane (the bond into the upper
    /// neighbour is owned by the lower plane, so ranks never double
    /// count). Summing over ranks gives the global energy.
    pub fn owned_energy(&self) -> f64 {
        let l = self.l;
        let mut e = 0.0f64;
        for p in 1..=self.lz {
            let zg = self.global_z(p);
            for y in 0..l {
                for x in 0..l {
                    let s = self.spin(p, y, x);
                    let nx = self.spin(p, y, (x + 1) % l);
                    let ny = self.spin(p, (y + 1) % l, x);
                    let nz = self.spin(p + 1, y, x);
                    let dot =
                        |a: [f32; 3], b: [f32; 3]| (a[0] * b[0] + a[1] * b[1] + a[2] * b[2]) as f64;
                    e -= coupling(self.seed, l, x, y, zg, 0) as f64 * dot(s, nx);
                    e -= coupling(self.seed, l, x, y, zg, 1) as f64 * dot(s, ny);
                    e -= coupling(self.seed, l, x, y, zg, 2) as f64 * dot(s, nz);
                }
            }
        }
        e
    }

    /// Checksum of owned spins (order-independent sum of bit patterns) —
    /// used to compare distributed runs against the reference.
    pub fn checksum(&self) -> u64 {
        let mut acc = 0u64;
        for p in 1..=self.lz {
            for y in 0..self.l {
                for x in 0..self.l {
                    let s = self.spin(p, y, x);
                    for c in s {
                        acc = acc.wrapping_add(c.to_bits() as u64);
                    }
                }
            }
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spins_are_unit_vectors() {
        let lat = Slab::full(8, 42);
        for p in 1..=8 {
            for y in 0..8 {
                for x in 0..8 {
                    let s = lat.spin(p, y, x);
                    let n = s[0] * s[0] + s[1] * s[1] + s[2] * s[2];
                    assert!((n - 1.0).abs() < 1e-5, "norm {n}");
                }
            }
        }
    }

    #[test]
    fn couplings_are_pm1_and_deterministic() {
        let a = coupling(7, 16, 3, 4, 5, 2);
        let b = coupling(7, 16, 3, 4, 5, 2);
        assert_eq!(a, b);
        assert!(a == 1.0 || a == -1.0);
        // Roughly balanced disorder.
        let mut plus = 0;
        for x in 0..16 {
            for y in 0..16 {
                for z in 0..16 {
                    for d in 0..3 {
                        if coupling(7, 16, x, y, z, d) > 0.0 {
                            plus += 1;
                        }
                    }
                }
            }
        }
        let frac = plus as f64 / (16.0 * 16.0 * 16.0 * 3.0);
        assert!((0.45..0.55).contains(&frac), "{frac}");
    }

    #[test]
    fn overrelaxation_conserves_energy() {
        let mut lat = Slab::full(8, 99);
        lat.wrap_ghosts();
        let e0 = lat.owned_energy();
        for _ in 0..5 {
            for color in 0..2 {
                lat.update_color(color, 1, 8);
                lat.wrap_ghosts();
            }
        }
        let e1 = lat.owned_energy();
        assert!(
            (e0 - e1).abs() < 1e-2 * e0.abs().max(1.0),
            "energy drifted: {e0} -> {e1}"
        );
        // But spins did change.
        let fresh = Slab::full(8, 99);
        assert_ne!(lat.checksum(), fresh.checksum());
    }

    #[test]
    fn slab_init_matches_full_lattice() {
        let full = Slab::full(8, 5);
        let slab = Slab::new(8, 4, 4, 5);
        for p in 1..=4 {
            let zg = slab.global_z(p);
            for y in 0..8 {
                for x in 0..8 {
                    assert_eq!(slab.spin(p, y, x), full.spin(zg + 1, y, x));
                }
            }
        }
    }

    #[test]
    fn pack_unpack_roundtrip() {
        let lat = Slab::full(8, 11);
        let mut dst = Slab::new(8, 2, 2, 11);
        // Plane global z=1 is dst's lower ghost (z0=2 → ghost holds z=1).
        let src_plane_global = 1;
        let bytes = lat.pack_plane(src_plane_global + 1, 0);
        assert_eq!(bytes.len() as u64, Slab::halo_bytes(8));
        dst.unpack_ghost(0, 0, &bytes);
        let zg = dst.global_z(0);
        assert_eq!(zg, 1);
        for y in 0..8 {
            for x in 0..8 {
                if dst.color_of(x, y, zg) == 0 {
                    assert_eq!(dst.spin(0, y, x), lat.spin(zg + 1, y, x));
                }
            }
        }
    }

    #[test]
    fn distributed_energy_partition_sums_to_global() {
        let full = Slab::full(8, 3);
        let total: f64 = (0..4)
            .map(|r| Slab::new(8, r * 2, 2, 3).owned_energy())
            .sum();
        assert!((full.owned_energy() - total).abs() < 1e-6);
    }

    #[test]
    fn update_counts_half_the_sites() {
        let mut lat = Slab::full(6, 1);
        lat.wrap_ghosts();
        let n = lat.update_color(0, 1, 6);
        assert_eq!(n, 6 * 6 * 6 / 2);
    }
}
