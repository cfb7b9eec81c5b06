"""Pinned tables of numpy's ziggurat sampler for float64 standard normals.

numpy draws a standard normal from one 64-bit word w on its fast path:
layer k = w & 0xff, sign = bit 8 and rabs = the 52 bits above it, and the
value is (-1)**sign * rabs * wi[k] whenever rabs < ki[k]. Every other word
takes a slow path that reads more words. ``core.Oracle`` reproduces the
fast path in bulk and leaves every other draw to numpy.

numpy does not expose ``wi`` or ``ki``, and no float formula reproduces
its ``wi``, so both tables were read off the installed numpy's own draws
(numpy 2.4.6, 2,000,000 draws, each from a fresh Philox): a draw took the
fast path exactly when it read a single word.

- ``WI[k]`` is the one float64 c with rabs * c == |z| for every fast draw
  z of layer k: each other float within 6 ulps fails one of the ~7,800
  draws per layer. The 255 entries so found equal the ``wi_double`` table
  in the static library numpy ships (``numpy/random/lib/libnpyrandom.a``).
- ``KI_LOWER[k]`` is 1 + the largest rabs seen on layer k's fast path, so
  it never exceeds numpy's ki[k]: a rabs below it is a fast-path draw.

Layer 1 never takes the fast path (numpy's ki[1] is 0), so its entries are
0 and every layer-1 draw goes to numpy. ``tests/test_core.py`` redraws from
numpy and fails if either table stops matching.
"""

import numpy as np

WI = np.array([float.fromhex(h) for h in """
    0x1.f493b7815d979p-51 0x0.0p+0 0x1.250af3c2c5bb4p-54 0x1.57cb938443b61p-54
    0x1.801fce82fa70cp-54 0x1.a230c2e4cd0bcp-54 0x1.c004d2f3861f7p-54 0x1.dac2f5a747274p-54
    0x1.f32482d4cd5c3p-54 0x1.04d32278ebbadp-53 0x1.0f5053b025d43p-53 0x1.192a697413677p-53
    0x1.227a28f7a1af5p-53 0x1.2b52e3863d880p-53 0x1.33c3fc05791f5p-53 0x1.3bd9ec1a2b12fp-53
    0x1.439ef8dff9b55p-53 0x1.4b1bb363dfea7p-53 0x1.52575621ad374p-53 0x1.59580a707ce96p-53
    0x1.60231cfd97eeap-53 0x1.66bd261a37c3dp-53 0x1.6d2a292000570p-53 0x1.736dad346f8a6p-53
    0x1.798ad10b32a77p-53 0x1.7f845ad46f543p-53 0x1.855cc53430a77p-53 0x1.8b1649e7b769ap-53
    0x1.90b2ea94ecf98p-53 0x1.96347822c1eeap-53 0x1.9b9c98e38c546p-53 0x1.a0eccdca4a72cp-53
    0x1.a62676d77cd59p-53 0x1.ab4ad6e101630p-53 0x1.b05b16d136c9cp-53 0x1.b558487427a29p-53
    0x1.ba4368e529f3ap-53 0x1.bf1d62abf8232p-53 0x1.c3e70f9594ef3p-53 0x1.c8a13a5323b61p-53
    0x1.cd4c9fe72268bp-53 0x1.d1e9f0e80b748p-53 0x1.d679d29e41f10p-53 0x1.dafce0023b8c3p-53
    0x1.df73aa9f17653p-53 0x1.e3debb5d2edfep-53 0x1.e83e9337a6f00p-53 0x1.ec93abdf982cep-53
    0x1.f0de784f06226p-53 0x1.f51f654d8f688p-53 0x1.f956d9e87d7aep-53 0x1.fd8537dfa2eacp-53
    0x1.00d56e04234ecp-52 0x1.02e40f5398f9ap-52 0x1.04eea9e16a5fcp-52 0x1.06f565b72a010p-52
    0x1.08f869071f40bp-52 0x1.0af7d84bc6113p-52 0x1.0cf3d664bcc7fp-52 0x1.0eec84b16086bp-52
    0x1.10e20329515eep-52 0x1.12d4707310fbep-52 0x1.14c3e9f8e9141p-52 0x1.16b08bfc4201ep-52
    0x1.189a71a78da34p-52 0x1.1a81b51ee6d88p-52 0x1.1c666f8f82acbp-52 0x1.1e48b93e0d42ep-52
    0x1.2028a9940a09fp-52 0x1.2206572c4c6e9p-52 0x1.23e1d7de9c31fp-52 0x1.25bb40ca96bfbp-52
    0x1.2792a661dd37fp-52 0x1.29681c719d71bp-52 0x1.2b3bb62b82edap-52 0x1.2d0d862e1b853p-52
    0x1.2edd9e8cba98ep-52 0x1.30ac10d6e48d7p-52 0x1.3278ee1f4b930p-52 0x1.3444470265ea1p-52
    0x1.360e2baca52d5p-52 0x1.37d6abe05586ap-52 0x1.399dd6fb2b264p-52 0x1.3b63bbfb83d03p-52
    0x1.3d28698561de0p-52 0x1.3eebede725a83p-52 0x1.40ae571e09e74p-52 0x1.426fb2da6745dp-52
    0x1.44300e83c30a4p-52 0x1.45ef773cac75dp-52 0x1.47adf9e66c336p-52 0x1.496ba32488f2fp-52
    0x1.4b287f602415dp-52 0x1.4ce49acb311dcp-52 0x1.4ea001638a605p-52 0x1.505abef5e5562p-52
    0x1.5214df20a8b5ap-52 0x1.53ce6d56a664fp-52 0x1.558774e1bb2c8p-52 0x1.574000e555f78p-52
    0x1.58f81c60e8514p-52 0x1.5aafd23241b59p-52 0x1.5c672d17d733dp-52 0x1.5e1e37b2f8cd3p-52
    0x1.5fd4fc89f5e38p-52 0x1.618b860a31fc3p-52 0x1.6341de8a2b0a2p-52 0x1.64f8104b7260bp-52
    0x1.66ae257c99672p-52 0x1.6864283b13137p-52 0x1.6a1a22950b2b1p-52 0x1.6bd01e8b343bbp-52
    0x1.6d8626128d352p-52 0x1.6f3c43161f854p-52 0x1.70f27f78b68ebp-52 0x1.72a8e516914c6p-52
    0x1.745f7dc70eedcp-52 0x1.7616535e5731fp-52 0x1.77cd6faeff449p-52 0x1.7984dc8babd93p-52
    0x1.7b3ca3c8b1409p-52 0x1.7cf4cf3db22fbp-52 0x1.7ead68c73dee7p-52 0x1.80667a486ea1fp-52
    0x1.82200dac88676p-52 0x1.83da2ce899f15p-52 0x1.8594e1fd1f5bdp-52 0x1.875036f7a7ec5p-52
    0x1.890c35f47f72dp-52 0x1.8ac8e9205c043p-52 0x1.8c865aba10c9cp-52 0x1.8e44951446a27p-52
    0x1.9003a2973b58fp-52 0x1.91c38dc288347p-52 0x1.9384612ef0afcp-52 0x1.954627903a28ap-52
    0x1.9708ebb70d5eep-52 0x1.98ccb892e2a31p-52 0x1.9a919933f99bfp-52 0x1.9c5798cd5d92cp-52
    0x1.9e1ec2b6f7411p-52 0x1.9fe7226fad24ap-52 0x1.a1b0c39f93692p-52 0x1.a37bb21a2c85bp-52
    0x1.a547f9e0bbb88p-52 0x1.a715a724aa9a4p-52 0x1.a8e4c64a0313dp-52 0x1.aab563e9ff108p-52
    0x1.ac878cd5af5cep-52 0x1.ae5b4e18bb336p-52 0x1.b030b4fc3a11ap-52 0x1.b207cf09a985bp-52
    0x1.b3e0aa0e00c00p-52 0x1.b5bb541ce3d03p-52 0x1.b797db93f8927p-52 0x1.b9764f1e5f73cp-52
    0x1.bb56bdb85256ep-52 0x1.bd3936b2ec0a2p-52 0x1.bf1dc9b81ae83p-52 0x1.c10486cec16a0p-52
    0x1.c2ed7e5f07a2dp-52 0x1.c4d8c136e0d1cp-52 0x1.c6c6608ec8705p-52 0x1.c8b66e0eba617p-52
    0x1.caa8fbd36a2abp-52 0x1.cc9e1c73bd690p-52 0x1.ce95e3068e037p-52 0x1.d0906328b8f6ep-52
    0x1.d28db1037ef20p-52 0x1.d48de1533c647p-52 0x1.d691096e7f123p-52 0x1.d8973f4d7fba5p-52
    0x1.daa0999206e70p-52 0x1.dcad2f8fc490ep-52 0x1.debd195522e37p-52 0x1.e0d06fb49d21cp-52
    0x1.e2e74c4ea46f6p-52 0x1.e501c99c1d188p-52 0x1.e72002f97fe25p-52 0x1.e94214b2abf0ap-52
    0x1.eb681c0f76f08p-52 0x1.ed9237610a73ap-52 0x1.efc086101eca9p-52 0x1.f1f328ac25321p-52
    0x1.f42a40fb74d6dp-52 0x1.f665f20c90168p-52 0x1.f8a6604899782p-52 0x1.faebb187122bfp-52
    0x1.fd360d22fe785p-52 0x1.ff859c118f60bp-52 0x1.00ed447d3a075p-51 0x1.021a8028fc947p-51
    0x1.034a983a902abp-51 0x1.047da4e3ef5c7p-51 0x1.05b3bf6adb37ep-51 0x1.06ed023a72668p-51
    0x1.082988f632e17p-51 0x1.0969708e8a254p-51 0x1.0aacd7571c0c4p-51 0x1.0bf3dd1eed448p-51
    0x1.0d3ea34aa3d30p-51 0x1.0e8d4cf116593p-51 0x1.0fdffefa69fb6p-51 0x1.1136e04207041p-51
    0x1.129219bbb5d35p-51 0x1.13f1d69c4096dp-51 0x1.1556448602e3bp-51 0x1.16bf93b9deef3p-51
    0x1.182df74d21261p-51 0x1.19a1a564eebacp-51 0x1.1b1ad777f2f8ep-51 0x1.1c99ca971a694p-51
    0x1.1e1ebfbe4ae39p-51 0x1.1fa9fc2e2d901p-51 0x1.213bc9d04cc81p-51 0x1.22d477a6fd3eep-51
    0x1.24745a4ac9c24p-51 0x1.261bcc77658e0p-51 0x1.27cb2faa8592ep-51 0x1.2982ecd770e78p-51
    0x1.2b437532a0a52p-51 0x1.2d0d43196db97p-51 0x1.2ee0db1a978f5p-51 0x1.30becd256aeeep-51
    0x1.32a7b5e68a4a3p-51 0x1.349c405ae12a3p-51 0x1.369d27a33a840p-51 0x1.38ab39256410ap-51
    0x1.3ac7570ae88fap-51 0x1.3cf27b31704a6p-51 0x1.3f2dbaa60f475p-51 0x1.417a49cb9e5dap-51
    0x1.43d9815545e94p-51 0x1.464ce44a73a15p-51 0x1.48d62759c43bcp-51 0x1.4b7739d6b5a27p-51
    0x1.4e3250dcd8902p-51 0x1.5109f53e9ac41p-51 0x1.54011523a7e42p-51 0x1.571b1a94ae41bp-51
    0x1.5a5c08b718dd9p-51 0x1.5dc8a243ad0fep-51 0x1.61669cf861e4cp-51 0x1.653ce7b006aeap-51
    0x1.69540be9fe5c3p-51 0x1.6db6b8d09e232p-51 0x1.72728f05f7a34p-51 0x1.7799556090673p-51
    0x1.7d42df4d6ce8cp-51 0x1.839030529f234p-51 0x1.8ab0fbfaa7c14p-51 0x1.92ee0946f4496p-51
    0x1.9cbee014057abp-51 0x1.a8fdc7894775ap-51 0x1.b981f3878fdb1p-51 0x1.d3bb48209ad33p-51
""".split()])

KI_LOWER = np.array([int(h, 16) for h in """
    0xef29007a9c21d 0x0000000000000 0xc083830040b2b 0xda3001d7b27a1 0xe5151515c5dd0 0xeb23d7d7ea668
    0xeef41a019cc6e 0xf192defda859a 0xf37a1ec3714d3 0xf4f39664ee43c 0xf60b03a5ef1ee 0xf7078817f76de
    0xf7c8fb06222b9 0xf86dd55e833c3 0xf8ecab9208d2e 0xf96a11df211c7 0xf9d888a0acb37 0xfa2d015f10e7e
    0xfa7d92ca42f6b 0xfac014d3e9af1 0xfb0794f715472 0xfb40b9275c092 0xfb7cfca6440a6 0xfb937a5fcad3f
    0xfbcde673cc15d 0xfbf78b5ae178f 0xfc10ff4767d59 0xfc404ab8adf5e 0xfc69b4efacd6e 0xfc8378d534713
    0xfc9dbf645eac7 0xfcbcb283451b7 0xfccfd44aed94b 0xfceb0ec6e7194 0xfcfba41f719bf 0xfd1359f1f749a
    0xfd238c7e11898 0xfd382b4c79c64 0xfd464a0ab48f8 0xfd572e80af974 0xfd5e10f88156a 0xfd6e85853a01c
    0xfd8083f37e261 0xfd8c07ab32f81 0xfd98173e75c4d 0xfda6eac9a2137 0xfdb24fc5291ee 0xfdbb5512cca2e
    0xfdc6d73a10325 0xfdc67dd936400 0xfdd8d2c76829c 0xfddd3b57af61b 0xfddd31df97351 0xfdf3727085519
    0xfdf4fea390e7c 0xfe04d396c8e2a 0xfe0cf854e27cd 0xfe147539b68c0 0xfe1beae8bc62c 0xfe1bbe1a72319
    0xfe168cc7a7e88 0xfe28dec1dcebe 0xfe35101f34471 0xfe380ecc7f557 0xfe372285d72f0 0xfe43bed0d0fd2
    0xfe432f641ec6d 0xfe4992467a90a 0xfe51d30ab01c8 0xfe5724e536459 0xfe541dd7cd868 0xfe5b6ffcfabc8
    0xfe65f479f8241 0xfe6039060a3de 0xfe633dc1ae530 0xfe605c98d9ebb 0xfe758928f584f 0xfe799a998d91d
    0xfe7df9a4fde26 0xfe8199caf7db6 0xfe8453155d911 0xfe5cdc0971a1e 0xfe8bebedf7082 0xfe8da46cd042f
    0xfe7e6d5a677f3 0xfe8e2fee5a740 0xfe96535a8c95d 0xfe998f6ed4cb2 0xfe9d20d608d87 0xfe9c082fff1fb
    0xfea020e61ca3c 0xfe9bddf9c6222 0xfe9bb8563d7d7 0xfe9a2194b2a9a 0xfeaa856bd2311 0xfea4b7dc6be83
    0xfe99f25554bce 0xfea4146e8b539 0xfeb1428dde3aa 0xfeb4016d94ac2 0xfeb757a39e7de 0xfeafeb03a10e8
    0xfeb7a5816c7c8 0xfeba7a632aadb 0xfec0871eb0b22 0xfeb6496ec38e6 0xfec202b1eeeab 0xfeb599e5ef350
    0xfec6ffafbc745 0xfeb545884214c 0xfec60fab4ba37 0xfe924b68f5fc4 0xfeca6f45ea796 0xfecd7250a85e6
    0xfecd26af77c62 0xfec45f631055e 0xfed076d7ed647 0xfed1778dfa272 0xfed1e43d42e49 0xfed57281dcdaa
    0xfeb0958446539 0xfed01f9be3108 0xfec64cfeb199f 0xfed9bd7b6240d 0xfed3519fc9b2a 0xfece9af3a57e9
    0xfeccd5664ac01 0xfedd0b7fff322 0xfed994d49e078 0xfed94f0579bf2 0xfed1dda120553 0xfedf98997e756
    0xfed28e8b5478d 0xfee24a4b0f9ad 0xfedd24a0f9df8 0xfeda0f2506aab 0xfee023ff06c76 0xfedec77c11f27
    0xfede326820486 0xfed4c6dd29dbf 0xfede4e345e6ab 0xfee0bf32a8b1e 0xfee1a2e718242 0xfee7065258381
    0xfede94865df30 0xfedab0a7090b1 0xfed9cc982868e 0xfedd6cb925c15 0xfee36dabbdd5b 0xfee66baa85ae1
    0xfee8c3f4e656c 0xfee36927a3240 0xfee05b0e8e969 0xfedf36a2bf09f 0xfee8596f46966 0xfee4d48852597
    0xfebeff7618d53 0xfee8d752fca2c 0xfeda17dd87863 0xfee4fcf4143f0 0xfede28441bd5e 0xfedf82a7125f2
    0xfee1a32ea2b45 0xfee513936c40b 0xfee233e8aacdc 0xfee5ff5eae3d5 0xfece1c00565bc 0xfee8c04c73687
    0xfee3073af1d32 0xfeda4c4181795 0xfedd205502b7c 0xfee252688279a 0xfee274b401845 0xfee3b5c69473f
    0xfee528aa0510e 0xfee05d83fc300 0xfee456a86beae 0xfeddd6a9460ad 0xfed55f5ffaab6 0xfee20c3b862b8
    0xfedd4a1c1c3a4 0xfea512a21840f 0xfedbec44aa59a 0xfeca29fa1821f 0xfece680658271 0xfedc8c4c996ad
    0xfed7e9be81b2e 0xfed6f4d369227 0xfeca4a6a076e5 0xfecd089cdd25e 0xfecf526d73c18 0xfed1023f92c01
    0xfeba73f6a0a5a 0xfed0c80979fc2 0xfec9d7805ddad 0xfec56c4788d7b 0xfecb8d7b89f9c 0xfec8050f1f4c1
    0xfebf508b2f937 0xfeb46e662a52a 0xfeb3d1f2bf3a0 0xfeb3668b06e44 0xfeb555f7bd460 0xfebc698a3c30a
    0xfeb8b12ab66fb 0xfea8fa440dc4d 0xfeb342dc196df 0xfeb418395037c 0xfeab69ea24b41 0xfeadd9f6bdb97
    0xfea9a8d4f6c2c 0xfea34f6e805df 0xfea069428a450 0xfe9cfa088232c 0xfe93067163937 0xfe95f70944b6e
    0xfe8fa0d2dfd2a 0xfe80d1066ab4f 0xfe79ab8446531 0xfe802c98311f2 0xfe736c701328e 0xfe77454c8e863
    0xfe73b8feeae5a 0xfe5cdd6a0d515 0xfe61ad23b8df2 0xfe512bdbbe638 0xfe50e6cfee04c 0xfe477623267eb
    0xfe488e297cfc1 0xfe3e254edbb6b 0xfe306f795fa6b 0xfe216d5e873c1 0xfe12b6052b425 0xfe069f817eb04
    0xfdf7cc23136bd 0xfdf7bd2c3c655 0xfdd61e67a5d6f 0xfdd592381d350 0xfdbbae41c1820 0xfd9c6965ef89f
    0xfd93fb420fa91 0xfd67a8159c29e 0xfd525da88d025 0xfd38e4bc8c52c 0xfd19b3eecdf16 0xfce60f12f6493
    0xfcae70c017abe 0xfc72226bb35b1 0xfc2f1ea303e83 0xfbd24aa55f714 0xfb5158c5fe4ed 0xfab8b46568812
    0xf9e72f1f047ba 0xf89a48c104423 0xf66adab658687 0xf1a1255779865
""".split()], dtype=np.uint64)
