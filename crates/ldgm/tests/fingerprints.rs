//! The wire contract of matrix construction: CSR + CSC fingerprints of a
//! table of geometries, computed with the sort-based assembly and the
//! two-division Park–Miller draw this crate shipped before its counting
//! assembly and folded draw.
//!
//! Sender and receiver build the matrix independently from the OTI seed,
//! so an entry that moves is a silent sender/receiver mismatch for every
//! peer still running the older build. A change that moves one fails here
//! instead; re-pinning this table is a wire-format change.

use fec_ldgm::RightSide::{self, Identity, Staircase, Triangle};
use fec_ldgm::TriangleFill::{self, *};
use fec_ldgm::{Encoder, LdgmParams, SparseMatrix};

/// FNV-1a over every row (length, then columns) and every column (length,
/// then rows), as little-endian `u32`s: the encoder's rows and the
/// matrix's columns exactly.
fn fingerprint(m: &SparseMatrix) -> u64 {
    let rows = Encoder::new(m);
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |w: u32| {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for i in 0..m.num_checks() {
        eat(rows.row(i).len() as u32);
        rows.row(i).iter().for_each(|&c| eat(c));
    }
    for v in 0..m.n() {
        eat(m.col(v).len() as u32);
        m.col(v).iter().for_each(|&r| eat(r));
    }
    h
}

type Pinned = (usize, usize, usize, RightSide, TriangleFill, u64, u64);

/// `(k, n, left degree, right side, fill, seed, fingerprint)`; the fill
/// matters for Triangle only. (2 040, 3 060), (5 000, 12 500) and
/// (8 160, 12 240) are `bulk_ldgm`'s, `sweep_grid`'s and `small_symbol`'s
/// geometries. The last twelve rows pin the other shipped shapes (ratio
/// 2.5 at k = 2 040 and 8 160, ratio 1.5 at k = 5 000), computed with the
/// entry-list construction that the column-major build replaced.
#[rustfmt::skip]
const PINNED: &[Pinned] = &[
    (4, 10, 3, Identity, PerRowUniform, 0x0, 0x277555728221a975),
    (4, 10, 3, Identity, PerRowUniform, 0xdeadbeef, 0xad58799f8bb4e9d2),
    (4, 10, 3, Identity, PerRowUniform, 0xffffffffffffffff, 0xb2873428f9a8b315),
    (4, 10, 3, Staircase, PerRowUniform, 0x0, 0x5e9bd785f30ca108),
    (4, 10, 3, Staircase, PerRowUniform, 0xdeadbeef, 0x276935d79ecef5cf),
    (4, 10, 3, Staircase, PerRowUniform, 0xffffffffffffffff, 0x8100dacd51c16b78),
    (4, 10, 3, Triangle, PerRowUniform, 0x0, 0x244354013b7c63fc),
    (4, 10, 3, Triangle, PerRowUniform, 0xdeadbeef, 0xd69bd24e07cb025b),
    (4, 10, 3, Triangle, PerRowUniform, 0xffffffffffffffff, 0xb5aa6361aa88859f),
    (4, 10, 3, Triangle, PerColumn(2), 0x0, 0xa923a504b80164f4),
    (4, 10, 3, Triangle, PerColumn(2), 0xdeadbeef, 0xd25b76335366c659),
    (4, 10, 3, Triangle, PerColumn(2), 0xffffffffffffffff, 0x05a52ac790a47b73),
    (4, 10, 3, Triangle, GeometricDouble, 0x0, 0x7a9aa85add1397f8),
    (4, 10, 3, Triangle, GeometricDouble, 0xdeadbeef, 0x080402039423534b),
    (4, 10, 3, Triangle, GeometricDouble, 0xffffffffffffffff, 0xaef69628fc8b6468),
    (4, 10, 3, Triangle, GeometricTriple, 0x0, 0x948a234b90b83c2d),
    (4, 10, 3, Triangle, GeometricTriple, 0xdeadbeef, 0x0f32e88e34ee1eae),
    (4, 10, 3, Triangle, GeometricTriple, 0xffffffffffffffff, 0xefe4cb82d397b3bd),
    (4, 10, 3, Triangle, ThirdDiagonal, 0x0, 0xb23569231309ebd8),
    (4, 10, 3, Triangle, ThirdDiagonal, 0xdeadbeef, 0x4db432e2d2dd546b),
    (4, 10, 3, Triangle, ThirdDiagonal, 0xffffffffffffffff, 0xc809961b4f7da3a8),
    (4, 10, 3, Triangle, PerRow(2), 0x0, 0x8f45d453219b3efa),
    (4, 10, 3, Triangle, PerRow(2), 0xdeadbeef, 0x1fa141dd58bc3f3d),
    (4, 10, 3, Triangle, PerRow(2), 0xffffffffffffffff, 0x302deeffda2229bc),
    (4, 10, 3, Triangle, HalvingTree, 0x0, 0xf64886359e1c749c),
    (4, 10, 3, Triangle, HalvingTree, 0xdeadbeef, 0x2a86fa19af365e2f),
    (4, 10, 3, Triangle, HalvingTree, 0xffffffffffffffff, 0x080bf0e7bcfb4cec),
    (50, 125, 3, Identity, PerRowUniform, 0x0, 0x94d531890d52e9c0),
    (50, 125, 3, Identity, PerRowUniform, 0xdeadbeef, 0x2056859b7e079480),
    (50, 125, 3, Identity, PerRowUniform, 0xffffffffffffffff, 0xabcbd843d07c4cfe),
    (50, 125, 3, Staircase, PerRowUniform, 0x0, 0x4783075ece41975a),
    (50, 125, 3, Staircase, PerRowUniform, 0xdeadbeef, 0x64fd0bce1a09ceea),
    (50, 125, 3, Staircase, PerRowUniform, 0xffffffffffffffff, 0x9e8b6e020187db04),
    (50, 125, 3, Triangle, PerRowUniform, 0x0, 0x075a9f86974f6859),
    (50, 125, 3, Triangle, PerRowUniform, 0xdeadbeef, 0x23765f29f83caa20),
    (50, 125, 3, Triangle, PerRowUniform, 0xffffffffffffffff, 0xb347bc5b0503f80f),
    (50, 125, 3, Triangle, PerColumn(2), 0x0, 0xeed30ca2b41927d3),
    (50, 125, 3, Triangle, PerColumn(2), 0xdeadbeef, 0x08760562abbbcba5),
    (50, 125, 3, Triangle, PerColumn(2), 0xffffffffffffffff, 0x37db45a92d6e16d8),
    (50, 125, 3, Triangle, GeometricDouble, 0x0, 0xccd008480f3cf9f4),
    (50, 125, 3, Triangle, GeometricDouble, 0xdeadbeef, 0x6cb16ea1b98b4a44),
    (50, 125, 3, Triangle, GeometricDouble, 0xffffffffffffffff, 0x882c780323fe3a7c),
    (50, 125, 3, Triangle, GeometricTriple, 0x0, 0xc43a76e75f152c12),
    (50, 125, 3, Triangle, GeometricTriple, 0xdeadbeef, 0x9f9948e587870af2),
    (50, 125, 3, Triangle, GeometricTriple, 0xffffffffffffffff, 0x5a3da0486e65cfa4),
    (50, 125, 3, Triangle, ThirdDiagonal, 0x0, 0x30c08e931c13bcea),
    (50, 125, 3, Triangle, ThirdDiagonal, 0xdeadbeef, 0x184ecbfbf6701efa),
    (50, 125, 3, Triangle, ThirdDiagonal, 0xffffffffffffffff, 0xe503cb729a5ee750),
    (50, 125, 3, Triangle, PerRow(2), 0x0, 0x70c582b6f996223f),
    (50, 125, 3, Triangle, PerRow(2), 0xdeadbeef, 0xdd666335b79641b5),
    (50, 125, 3, Triangle, PerRow(2), 0xffffffffffffffff, 0x23bbf4d943fa249a),
    (50, 125, 3, Triangle, HalvingTree, 0x0, 0xa5457e75f4c29fc2),
    (50, 125, 3, Triangle, HalvingTree, 0xdeadbeef, 0x5178c9952db76a32),
    (50, 125, 3, Triangle, HalvingTree, 0xffffffffffffffff, 0xd720af9735639258),
    (100, 150, 3, Identity, PerRowUniform, 0x0, 0x2821bf82b26c06a5),
    (100, 150, 3, Identity, PerRowUniform, 0xdeadbeef, 0x316236bcc980ece5),
    (100, 150, 3, Identity, PerRowUniform, 0xffffffffffffffff, 0x2dcce93a48127bd5),
    (100, 150, 3, Staircase, PerRowUniform, 0x0, 0xc83ac888471182fc),
    (100, 150, 3, Staircase, PerRowUniform, 0xdeadbeef, 0x2ff82c92580da58c),
    (100, 150, 3, Staircase, PerRowUniform, 0xffffffffffffffff, 0xde030c33a457b1fc),
    (100, 150, 3, Triangle, PerRowUniform, 0x0, 0x07167d45bcca51d2),
    (100, 150, 3, Triangle, PerRowUniform, 0xdeadbeef, 0x389cd7daf16a302e),
    (100, 150, 3, Triangle, PerRowUniform, 0xffffffffffffffff, 0x3717ee052c15427f),
    (100, 150, 3, Triangle, PerColumn(2), 0x0, 0x76d7ad52b8e160a4),
    (100, 150, 3, Triangle, PerColumn(2), 0xdeadbeef, 0x08a8ea77fc859c98),
    (100, 150, 3, Triangle, PerColumn(2), 0xffffffffffffffff, 0x2b9978251e95b797),
    (100, 150, 3, Triangle, GeometricDouble, 0x0, 0x0d8354af44dd415c),
    (100, 150, 3, Triangle, GeometricDouble, 0xdeadbeef, 0xe6f7edfc062410ec),
    (100, 150, 3, Triangle, GeometricDouble, 0xffffffffffffffff, 0x7e1b63d4479524dc),
    (100, 150, 3, Triangle, GeometricTriple, 0x0, 0xd79f3211edaa45bc),
    (100, 150, 3, Triangle, GeometricTriple, 0xdeadbeef, 0x56378d4b1bcf084c),
    (100, 150, 3, Triangle, GeometricTriple, 0xffffffffffffffff, 0x96547e1846e8336c),
    (100, 150, 3, Triangle, ThirdDiagonal, 0x0, 0xbc07c942ac81765c),
    (100, 150, 3, Triangle, ThirdDiagonal, 0xdeadbeef, 0x9b33a4fcbdf1094c),
    (100, 150, 3, Triangle, ThirdDiagonal, 0xffffffffffffffff, 0xed0530afb5a9071c),
    (100, 150, 3, Triangle, PerRow(2), 0x0, 0x6c131f93df656733),
    (100, 150, 3, Triangle, PerRow(2), 0xdeadbeef, 0x0e5d7e6a1f523615),
    (100, 150, 3, Triangle, PerRow(2), 0xffffffffffffffff, 0xbce8933099894fe6),
    (100, 150, 3, Triangle, HalvingTree, 0x0, 0x6bdc059d9b001332),
    (100, 150, 3, Triangle, HalvingTree, 0xdeadbeef, 0x427929c350c32ac2),
    (100, 150, 3, Triangle, HalvingTree, 0xffffffffffffffff, 0xb122648c513caf32),
    (300, 750, 3, Identity, PerRowUniform, 0x0, 0x81a43dbeef506b15),
    (300, 750, 3, Identity, PerRowUniform, 0xdeadbeef, 0x1337760374057f71),
    (300, 750, 3, Identity, PerRowUniform, 0xffffffffffffffff, 0x658a2a3809ade935),
    (300, 750, 3, Staircase, PerRowUniform, 0x0, 0x6e09cc0181027cde),
    (300, 750, 3, Staircase, PerRowUniform, 0xdeadbeef, 0x1eea03aea587e27e),
    (300, 750, 3, Staircase, PerRowUniform, 0xffffffffffffffff, 0xefb95282df435306),
    (300, 750, 3, Triangle, PerRowUniform, 0x0, 0xbae6add5a4ec5898),
    (300, 750, 3, Triangle, PerRowUniform, 0xdeadbeef, 0x235933d260e64492),
    (300, 750, 3, Triangle, PerRowUniform, 0xffffffffffffffff, 0xb78dae3bd97f8953),
    (300, 750, 3, Triangle, PerColumn(2), 0x0, 0x5de7c17b71dd2cfb),
    (300, 750, 3, Triangle, PerColumn(2), 0xdeadbeef, 0x9bec2b2a016923a3),
    (300, 750, 3, Triangle, PerColumn(2), 0xffffffffffffffff, 0x3bfb1247a8500d2d),
    (300, 750, 3, Triangle, GeometricDouble, 0x0, 0x858a8051f4a9f8aa),
    (300, 750, 3, Triangle, GeometricDouble, 0xdeadbeef, 0xaf66e8c1f3e36d1e),
    (300, 750, 3, Triangle, GeometricDouble, 0xffffffffffffffff, 0xa549a6d3fef64066),
    (300, 750, 3, Triangle, GeometricTriple, 0x0, 0xf8fa710b1c601967),
    (300, 750, 3, Triangle, GeometricTriple, 0xdeadbeef, 0x4b1865aa2d5f6bcb),
    (300, 750, 3, Triangle, GeometricTriple, 0xffffffffffffffff, 0x8ed01a0c5485628b),
    (300, 750, 3, Triangle, ThirdDiagonal, 0x0, 0x32f883b1aa51defe),
    (300, 750, 3, Triangle, ThirdDiagonal, 0xdeadbeef, 0x1e13b6b889e3e1e6),
    (300, 750, 3, Triangle, ThirdDiagonal, 0xffffffffffffffff, 0x6d517a038b18693e),
    (300, 750, 3, Triangle, PerRow(2), 0x0, 0x2555668859070da0),
    (300, 750, 3, Triangle, PerRow(2), 0xdeadbeef, 0x0fd4b8e7e97b8775),
    (300, 750, 3, Triangle, PerRow(2), 0xffffffffffffffff, 0xd2aa1a638f843e94),
    (300, 750, 3, Triangle, HalvingTree, 0x0, 0x9fa73323b1d66f6d),
    (300, 750, 3, Triangle, HalvingTree, 0xdeadbeef, 0xe7d523c1c80204f5),
    (300, 750, 3, Triangle, HalvingTree, 0xffffffffffffffff, 0x94aee893b0f67e29),
    (300, 750, 2, Identity, PerRowUniform, 0x0, 0xead22aefa436e6ad),
    (300, 750, 2, Identity, PerRowUniform, 0xdeadbeef, 0xccf87b6bc051213d),
    (300, 750, 2, Identity, PerRowUniform, 0xffffffffffffffff, 0x04d3cd1bb49309a2),
    (300, 750, 2, Staircase, PerRowUniform, 0x0, 0x0bd5ebebb9e3bc54),
    (300, 750, 2, Staircase, PerRowUniform, 0xdeadbeef, 0xb2204b3af2a16120),
    (300, 750, 2, Staircase, PerRowUniform, 0xffffffffffffffff, 0xe2099aa84475e06d),
    (300, 750, 2, Triangle, PerRowUniform, 0x0, 0x78f6eb07c65050e6),
    (300, 750, 2, Triangle, PerRowUniform, 0xdeadbeef, 0x958d7d7913f326ba),
    (300, 750, 2, Triangle, PerRowUniform, 0xffffffffffffffff, 0xac1f28d01bf92a78),
    (300, 750, 2, Triangle, PerColumn(2), 0x0, 0x1f8e39fdc5c38b2e),
    (300, 750, 2, Triangle, PerColumn(2), 0xdeadbeef, 0xd1afb80c83c830dc),
    (300, 750, 2, Triangle, PerColumn(2), 0xffffffffffffffff, 0x558e44fbc3ff195b),
    (300, 750, 2, Triangle, GeometricDouble, 0x0, 0xe66200af99f92896),
    (300, 750, 2, Triangle, GeometricDouble, 0xdeadbeef, 0x78f68aa95e71a1c0),
    (300, 750, 2, Triangle, GeometricDouble, 0xffffffffffffffff, 0xd90746788b7934a1),
    (300, 750, 2, Triangle, GeometricTriple, 0x0, 0x820cebed6754df45),
    (300, 750, 2, Triangle, GeometricTriple, 0xdeadbeef, 0xbaf5cb74c8b7bb2b),
    (300, 750, 2, Triangle, GeometricTriple, 0xffffffffffffffff, 0x444f40cda25bd37a),
    (300, 750, 2, Triangle, ThirdDiagonal, 0x0, 0x89462d826ba20530),
    (300, 750, 2, Triangle, ThirdDiagonal, 0xdeadbeef, 0xd9748c44b8a80c5c),
    (300, 750, 2, Triangle, ThirdDiagonal, 0xffffffffffffffff, 0xc8a0fa3b4033b491),
    (300, 750, 2, Triangle, PerRow(2), 0x0, 0x723754f0a8ba3e6c),
    (300, 750, 2, Triangle, PerRow(2), 0xdeadbeef, 0x07f85d4c289bc54c),
    (300, 750, 2, Triangle, PerRow(2), 0xffffffffffffffff, 0x32af0dfc61beebd9),
    (300, 750, 2, Triangle, HalvingTree, 0x0, 0x44227398c20a72b7),
    (300, 750, 2, Triangle, HalvingTree, 0xdeadbeef, 0x52382f33a3272987),
    (300, 750, 2, Triangle, HalvingTree, 0xffffffffffffffff, 0x422e167f74ba0aea),
    (300, 750, 5, Identity, PerRowUniform, 0x0, 0x6c6dfa7bdfe29ec5),
    (300, 750, 5, Identity, PerRowUniform, 0xdeadbeef, 0x2602fc8f90a1aef5),
    (300, 750, 5, Identity, PerRowUniform, 0xffffffffffffffff, 0xc2b418060f2a71a2),
    (300, 750, 5, Staircase, PerRowUniform, 0x0, 0x884122d6c4ee3e5c),
    (300, 750, 5, Staircase, PerRowUniform, 0xdeadbeef, 0x52835a1cd4a5834c),
    (300, 750, 5, Staircase, PerRowUniform, 0xffffffffffffffff, 0xec8df891614d03f5),
    (300, 750, 5, Triangle, PerRowUniform, 0x0, 0xd3957d06ddf86fc0),
    (300, 750, 5, Triangle, PerRowUniform, 0xdeadbeef, 0x2771292ca3e4c67f),
    (300, 750, 5, Triangle, PerRowUniform, 0xffffffffffffffff, 0x36ab60d17255c74d),
    (300, 750, 5, Triangle, PerColumn(2), 0x0, 0x07ad9537018d645b),
    (300, 750, 5, Triangle, PerColumn(2), 0xdeadbeef, 0x3a2294fdfda5076e),
    (300, 750, 5, Triangle, PerColumn(2), 0xffffffffffffffff, 0xf86d021f89f9a233),
    (300, 750, 5, Triangle, GeometricDouble, 0x0, 0xf80d53aa89ae9726),
    (300, 750, 5, Triangle, GeometricDouble, 0xdeadbeef, 0x159f508ed54a4874),
    (300, 750, 5, Triangle, GeometricDouble, 0xffffffffffffffff, 0x346b3d2481ca5ebd),
    (300, 750, 5, Triangle, GeometricTriple, 0x0, 0x8865cd98558cd4c5),
    (300, 750, 5, Triangle, GeometricTriple, 0xdeadbeef, 0x2a4edd14ff3bcea3),
    (300, 750, 5, Triangle, GeometricTriple, 0xffffffffffffffff, 0xf3aa09ef403dedfe),
    (300, 750, 5, Triangle, ThirdDiagonal, 0x0, 0xf637b5cfaf08fd90),
    (300, 750, 5, Triangle, ThirdDiagonal, 0xdeadbeef, 0x25c793b4958a24c8),
    (300, 750, 5, Triangle, ThirdDiagonal, 0xffffffffffffffff, 0x936b52f307d21801),
    (300, 750, 5, Triangle, PerRow(2), 0x0, 0xb4267327edea6c3b),
    (300, 750, 5, Triangle, PerRow(2), 0xdeadbeef, 0xcdf39ff6f4d195a8),
    (300, 750, 5, Triangle, PerRow(2), 0xffffffffffffffff, 0x72a59d27945f8e63),
    (300, 750, 5, Triangle, HalvingTree, 0x0, 0x58fa2ee64e399adb),
    (300, 750, 5, Triangle, HalvingTree, 0xdeadbeef, 0x78f601c3b0f8fdeb),
    (300, 750, 5, Triangle, HalvingTree, 0xffffffffffffffff, 0x6128ca1fa744ac4a),
    (2040, 3060, 3, Identity, PerRowUniform, 0x5eed, 0xaccc0a9ac56e2755),
    (2040, 3060, 3, Identity, PerRowUniform, 0xfec00001, 0x3d28aa1293e57dad),
    (2040, 3060, 3, Staircase, PerRowUniform, 0x5eed, 0xba5aa5dce553d9ab),
    (2040, 3060, 3, Staircase, PerRowUniform, 0xfec00001, 0x53a450489fd77def),
    (2040, 3060, 3, Triangle, PerRowUniform, 0x5eed, 0xd74af8cb1a57ee50),
    (2040, 3060, 3, Triangle, PerRowUniform, 0xfec00001, 0xd7c23b72ca85a877),
    (2040, 3060, 3, Triangle, PerColumn(2), 0x5eed, 0xa546ded4be0e6a59),
    (2040, 3060, 3, Triangle, PerColumn(2), 0xfec00001, 0x5e403c063b699861),
    (2040, 3060, 3, Triangle, GeometricDouble, 0x5eed, 0x0c84e602734a347b),
    (2040, 3060, 3, Triangle, GeometricDouble, 0xfec00001, 0x2edac2dac9fddbef),
    (2040, 3060, 3, Triangle, GeometricTriple, 0x5eed, 0x5a5b3642d255f579),
    (2040, 3060, 3, Triangle, GeometricTriple, 0xfec00001, 0xa4b31659d2024a41),
    (2040, 3060, 3, Triangle, ThirdDiagonal, 0x5eed, 0x5e84cf603e9038a7),
    (2040, 3060, 3, Triangle, ThirdDiagonal, 0xfec00001, 0x77f8b082a99dd04b),
    (2040, 3060, 3, Triangle, PerRow(2), 0x5eed, 0x7ff299adad2915a6),
    (2040, 3060, 3, Triangle, PerRow(2), 0xfec00001, 0xf19ca7623b0967c3),
    (2040, 3060, 3, Triangle, HalvingTree, 0x5eed, 0xb6cc100c0eed12b9),
    (2040, 3060, 3, Triangle, HalvingTree, 0xfec00001, 0x6729e585b427cffd),
    (5000, 12500, 3, Identity, PerRowUniform, 0x5eed, 0x374227d48091b021),
    (5000, 12500, 3, Identity, PerRowUniform, 0xfec00001, 0x683ee11a4e99cd49),
    (5000, 12500, 3, Staircase, PerRowUniform, 0x5eed, 0xd815e185acdfb21e),
    (5000, 12500, 3, Staircase, PerRowUniform, 0xfec00001, 0x83700e3c23c16c6e),
    (5000, 12500, 3, Triangle, PerRowUniform, 0x5eed, 0xf00e996e722edc3b),
    (5000, 12500, 3, Triangle, PerRowUniform, 0xfec00001, 0xbd6213823ff6cfb4),
    (5000, 12500, 3, Triangle, PerColumn(2), 0x5eed, 0x058312006f759771),
    (5000, 12500, 3, Triangle, PerColumn(2), 0xfec00001, 0x6f87b991a87b06ac),
    (5000, 12500, 3, Triangle, GeometricDouble, 0x5eed, 0x8d68b1698b7f6232),
    (5000, 12500, 3, Triangle, GeometricDouble, 0xfec00001, 0x02f7b0b165fb361e),
    (5000, 12500, 3, Triangle, GeometricTriple, 0x5eed, 0x81cdc829933a00dc),
    (5000, 12500, 3, Triangle, GeometricTriple, 0xfec00001, 0xb9159de58b1d13fc),
    (5000, 12500, 3, Triangle, ThirdDiagonal, 0x5eed, 0x250e0012c5f454a2),
    (5000, 12500, 3, Triangle, ThirdDiagonal, 0xfec00001, 0x452c62c07bae586e),
    (5000, 12500, 3, Triangle, PerRow(2), 0x5eed, 0x97ce91485f92d00b),
    (5000, 12500, 3, Triangle, PerRow(2), 0xfec00001, 0x53a55a5efa31a7f0),
    (5000, 12500, 3, Triangle, HalvingTree, 0x5eed, 0xb5d23f6968dabf15),
    (5000, 12500, 3, Triangle, HalvingTree, 0xfec00001, 0xf157f4a751c4e891),
    (8160, 12240, 3, Identity, PerRowUniform, 0x5eed, 0x923c959493d1da19),
    (8160, 12240, 3, Identity, PerRowUniform, 0xfec00001, 0xa703c50d7503131d),
    (8160, 12240, 3, Staircase, PerRowUniform, 0x5eed, 0x005a337f308006af),
    (8160, 12240, 3, Staircase, PerRowUniform, 0xfec00001, 0x657385eef166f9f7),
    (8160, 12240, 3, Triangle, PerRowUniform, 0x5eed, 0x4bafa7cfed36b83a),
    (8160, 12240, 3, Triangle, PerRowUniform, 0xfec00001, 0xe2ea129879c2f55b),
    (8160, 12240, 3, Triangle, PerColumn(2), 0x5eed, 0xb04f4a8ccfefad9f),
    (8160, 12240, 3, Triangle, PerColumn(2), 0xfec00001, 0x489505e14dbe4a27),
    (8160, 12240, 3, Triangle, GeometricDouble, 0x5eed, 0x5ae01d46c75d1f9f),
    (8160, 12240, 3, Triangle, GeometricDouble, 0xfec00001, 0x29f868b3263fe2a3),
    (8160, 12240, 3, Triangle, GeometricTriple, 0x5eed, 0xa2f1cad036827e90),
    (8160, 12240, 3, Triangle, GeometricTriple, 0xfec00001, 0xee8ee42f94e3fd98),
    (8160, 12240, 3, Triangle, ThirdDiagonal, 0x5eed, 0x522dffd263e2191f),
    (8160, 12240, 3, Triangle, ThirdDiagonal, 0xfec00001, 0xc87d05e60aeecf13),
    (8160, 12240, 3, Triangle, PerRow(2), 0x5eed, 0xa2348b245f719f91),
    (8160, 12240, 3, Triangle, PerRow(2), 0xfec00001, 0x5e2a93e194be7498),
    (8160, 12240, 3, Triangle, HalvingTree, 0x5eed, 0x681ef68d1ac2ece9),
    (8160, 12240, 3, Triangle, HalvingTree, 0xfec00001, 0xafa202a705532155),
    (2040, 5100, 3, Staircase, PerRowUniform, 0x5eed, 0xc5aa4e8d5bbd14ef),
    (2040, 5100, 3, Staircase, PerRowUniform, 0xfec00001, 0x8f379273c42bce33),
    (2040, 5100, 3, Triangle, PerRowUniform, 0x5eed, 0x402e7d0af84c0031),
    (2040, 5100, 3, Triangle, PerRowUniform, 0xfec00001, 0xa97a46024a6e0c54),
    (5000, 7500, 3, Staircase, PerRowUniform, 0x5eed, 0x786fac617ee4b589),
    (5000, 7500, 3, Staircase, PerRowUniform, 0xfec00001, 0x709d2801efd917b1),
    (5000, 7500, 3, Triangle, PerRowUniform, 0x5eed, 0x28e48d9e288be8a2),
    (5000, 7500, 3, Triangle, PerRowUniform, 0xfec00001, 0xf6a30a993856c90d),
    (8160, 20400, 3, Staircase, PerRowUniform, 0x5eed, 0x3011e0f2ace9b0af),
    (8160, 20400, 3, Staircase, PerRowUniform, 0xfec00001, 0x81114d50682f9547),
    (8160, 20400, 3, Triangle, PerRowUniform, 0x5eed, 0x249e6d34bd2ac742),
    (8160, 20400, 3, Triangle, PerRowUniform, 0xfec00001, 0x2e16382ff7074c5d),
];

#[test]
fn matrices_match_their_pinned_fingerprints() {
    let mut moved = Vec::new();
    for &(k, n, left_degree, right, fill, seed, pinned) in PINNED {
        let params = LdgmParams {
            k,
            n,
            left_degree,
            right,
            seed,
        };
        let m = SparseMatrix::build_with_fill(params, fill).expect("valid geometry");
        let got = fingerprint(&m);
        if got != pinned {
            moved.push(format!(
                "k={k} n={n} d={left_degree} {right} {fill:?} seed={seed:#x}: {got:#018x}"
            ));
        }
    }
    assert!(moved.is_empty(), "matrices moved:\n{}", moved.join("\n"));
}
